(** 4-ary implicit min-heap keyed by [(int, int)]: the engine's event
    queue.

    The primary key is a timestamp in nanoseconds (a {!Time.t} read as
    an [int]); the secondary key is an insertion sequence number so
    that events scheduled for the same instant pop in FIFO order, which
    keeps simulations deterministic.

    Keys and sequence numbers are stored in parallel arrays of
    immediates (no per-entry boxing), and sift operations move elements
    through a hole instead of swapping, so a push or pop touches one
    cache line per level of a 4-ary tree.  Extraction returns only the
    payload, so a push/pop pair over an immediate payload (the engine
    stores arena slot indexes) touches no minor heap. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push h ~key ~seq v] inserts [v]. *)

val min_key : 'a t -> int
(** Key of the minimum element, or [max_int] when empty. *)

val pop_min : 'a t -> 'a
(** Removes the minimum element and returns its value (read the key
    first with {!min_key}).  The vacated slot is cleared so popped
    values are not retained.  Raises [Invalid_argument] when empty. *)

val clear : 'a t -> unit
