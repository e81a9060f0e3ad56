(** CRC-32 (IEEE 802.3 polynomial), as used by the AAL5 trailer. *)

val digest : bytes -> pos:int -> len:int -> int
(** CRC of a byte range, as a non-negative int (fits in 32 bits). *)

val digest_bytes : bytes -> int
(** CRC of a whole buffer. *)

val put_trailer : bytes -> unit
(** [put_trailer pdu] stores the CRC of everything before [pdu]'s last
    four bytes, big-endian, in those four bytes: the AAL5 trailer CRC. *)
