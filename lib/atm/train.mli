(** A cell train: a contiguous burst of cells of one AAL5 frame,
    sharing one VCI and one backing PDU.

    This is the unit the fast path moves through the network — one
    scheduled event per hop instead of one per cell — and the unit the
    reassembler takes frames from.  A train is an immutable window
    [[first, first + count)] into the [total] cells of its PDU, so
    splitting a burst (fault fallback, partial queue overflow, chunked
    delivery) is [sub], not a copy.  Cell [i]'s payload is the 48 bytes
    at [(first + i) * 48] of the PDU; the frame's end-of-frame bit lives
    on absolute cell [total - 1].

    {2 Seals}

    Every window of one PDU shares one {!pdu} handle.  A PDU built by
    {!seal} starts {e sealed}: nothing outside this module holds a
    mutable alias of its bytes, so they are exactly what the sender
    built and a frame taken whole from it cannot fail its CRC.  Its
    trailer CRC is left {e due} and written at most once, by the first
    of:
    - a {e revocation}: {!buf} or {!cell} hands out a mutable alias,
      so the CRC is written from the untouched bytes and the seal is
      cleared for good;
    - a {!copy} or {!blit} whose range reaches the CRC field.

    A PDU from {!make} (caller bytes) is never sealed and its trailer
    is whatever the caller wrote.  The record is private: windows are
    built only here, the VCI changes only through {!set_vci}, and the
    bytes leave only through the functions below. *)

type pdu
(** One PDU's bytes plus its seal, shared by all of its windows. *)

type t = private {
  mutable vci : int;  (** rewritten at each switch hop ({!set_vci}) *)
  flow : int;
      (** causal flow id carried by every cell of the frame
          ({!Sim.Trace.no_flow} when untraced) *)
  pdu : pdu;  (** the whole AAL5 PDU *)
  first : int;  (** absolute index of this window's first cell *)
  count : int;  (** cells in this window *)
  total : int;  (** cells in the whole PDU *)
}

val make : vci:int -> ?flow:int -> bytes -> t
(** A train covering a whole caller-owned PDU; never sealed.  Raises
    [Invalid_argument] unless the buffer is a non-zero whole number of
    48-byte cells. *)

val seal : vci:int -> flow:int -> bytes -> t
(** A sealed train over a freshly built AAL5 PDU whose length field is
    written and whose CRC field is still to be filled.  Takes ownership
    of the bytes: the caller must keep no alias.  Raises like {!make}. *)

val sub : t -> first:int -> count:int -> t
(** A sub-window, [first] relative to [t]'s window.  Shares the PDU.
    Raises [Invalid_argument] when out of bounds or empty. *)

val extend : t -> count:int -> t
(** [t]'s window resized to [count] cells from the same first
    cell.  Raises [Invalid_argument] when empty or past the PDU's end. *)

val same_pdu : t -> t -> bool
(** Are both windows views of one PDU? *)

val set_vci : t -> int -> unit

val cell : t -> int -> Cell.t
(** Cell [i] of the window as a zero-copy {!Cell.t} view carrying the
    train's current VCI.  Revokes the PDU's seal. *)

val buf : t -> bytes
(** The whole PDU's bytes, with its trailer CRC written.  Revokes the
    seal. *)

val is_last : t -> int -> bool
(** Does cell [i] of the window carry the end-of-frame bit? *)

val contains_last : t -> bool
(** Does the window reach the end of the frame? *)

val count : t -> int
val total : t -> int
val first : t -> int

(** {2 Read-only access for the reassembler} *)

val pdu : t -> pdu

val is_sealed : pdu -> bool
val crc_due : pdu -> bool

val get_u16 : pdu -> int -> int
(** A big-endian 16-bit field of the PDU. *)

val copy : pdu -> pos:int -> len:int -> bytes
(** A fresh copy of a byte range; completes a due CRC first when the
    range reaches it. *)

val blit : pdu -> pos:int -> bytes -> int -> int -> unit
(** [blit p ~pos dst dst_pos len] copies like {!Bytes.blit}; completes a
    due CRC first when the range reaches it. *)
