(** AAL5 segmentation and reassembly.

    A CPCS-PDU is the user payload, zero padding, and an 8-byte trailer
    (UU, CPI, 16-bit length, CRC-32), sized to a whole number of cells.
    The final cell of a frame is marked via the PTI bit.  The paper's
    devices use AAL5 so that faulty tiles are detected before rendering.

    Segmentation is zero-copy: the PDU is built once and cells (or one
    {!Train.t}) are views into it.

    {2 Verify-once frames}

    No fault in this model flips a payload bit: faults drop, delay and
    cut off cells.  So a frame whose train windows all come, in order,
    from one PDU that is still sealed ({!Train}) cannot fail its CRC.
    {!segment_train} seals its PDU and leaves the trailer CRC due;
    {!Reassembler.push_train} takes such a frame by handle, with no
    blit and no CRC, and copies its payload out once at the end.  The
    sender's CRC is written only when some reader can need it: a
    revocation ({!Train.buf}, {!Train.cell}) or a copy reaching the
    trailer.  Every other frame — a gap from a dropped cell, a splice
    across PDUs, an unsealed or forged train, per-cell delivery, an
    overflow — is copied and gets one real CRC check, as {!segment}'s
    per-cell frames always do.

    The contract: a write to a PDU made before the frame's first window
    reaches a reassembler is caught by the CRC.  Writing bytes that
    have already been delivered into a frame still in flight is outside
    the model; such a write used to be invisible (the bytes were copied
    at arrival) and is now reported as [Crc_mismatch]. *)

val trailer_bytes : int

val frame_cells : int -> int
(** [frame_cells len] is the number of cells needed for a [len]-byte
    payload. *)

val segment : vci:int -> ?flow:int -> bytes -> Cell.t list
(** Split a payload into cells — zero-copy views of one PDU buffer,
    each carrying [flow].  Raises [Invalid_argument] on payloads longer
    than 65535 bytes. *)

val segment_train : vci:int -> ?flow:int -> bytes -> Train.t
(** The same PDU as one sealed train (the fast path), its trailer CRC
    left due.  Raises like {!segment}. *)

type error =
  | Crc_mismatch
  | Length_mismatch
  | Too_long  (** reassembly buffer exceeded *)

val pp_error : Format.formatter -> error -> unit

(** Per-VC reassembler.  Feed cells in order; a result is returned on
    each end-of-frame cell.  Frames of a sealed PDU fed window by window
    are verified once, by their seal; everything else is copied at
    arrival and checked by CRC (see {e Verify-once frames} above). *)
module Reassembler : sig
  type t

  val create : ?max_frame:int -> unit -> t

  val push : t -> Cell.t -> (bytes, error) result option
  (** [push t cell] returns [Some result] when [cell] completes a frame,
      [None] otherwise. *)

  val push_train : t -> Train.t -> (bytes, error) result list
  (** Push a whole train window: by handle when it continues an intact
      sealed frame, else as one blit.  Equivalent to pushing its cells
      in order; the list is almost always empty (mid-frame) or a
      singleton (the window completes a frame), but the overflow path
      can emit [Error Too_long] followed by the result of whatever
      accumulates afterwards. *)

  val pending_cells : t -> int
  (** Cells of the frame in progress, tracked or copied. *)

  val last_flow : t -> int
  (** Flow id carried by the cells of the most recently completed
      frame ({!Sim.Trace.no_flow} if none, or untraced).  Valid until
      the next frame completes — read it inside the delivery
      callback. *)
end
