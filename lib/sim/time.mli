(** Simulated time.

    Time is a count of nanoseconds since the start of the simulation,
    held in a native [int].  On the 64-bit platforms the simulator
    targets that is 63 bits, about 146 years of nanoseconds, so
    overflow is not a practical concern.  The type is private: values
    are built only through the constructors below, but reading one as
    an [int] is a free coercion ([(t :> int)]), and nothing on the
    event path boxes a timestamp.  All of the simulator, the ATM
    network, the Nemesis kernel and the file-server models share this
    clock. *)

type t = private int

val zero : t

val never : t
(** The latest representable instant ([max_int] ns): a sentinel for
    "no deadline" and "no pending event", later than every real
    time. *)

(** {1 Constructors} *)

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val of_sec_f : float -> t
(** [of_sec_f s] converts a duration in (possibly fractional) seconds,
    truncating toward zero. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> int -> t
val div : t -> int -> t
val min : t -> t -> t
val max : t -> t -> t
val compare : t -> t -> int
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

(** {1 Conversions} *)

val to_ns : t -> int
val to_us_f : t -> float
val to_ms_f : t -> float
val to_sec_f : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit: whole [ns] below
    1 us, then [us] to two decimals, [ms] and [s] to three. *)
