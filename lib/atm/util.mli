(** Byte-buffer helpers for marshalling device payloads.

    All integers are big-endian, matching network convention. *)

val put_u16 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val put_u32 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
val put_time : bytes -> int -> Sim.Time.t -> unit
(** [put_time b off t] writes [t]'s nanoseconds as a big-endian
    64-bit integer: 8 bytes, as on the wire. *)

val get_time : bytes -> int -> Sim.Time.t
