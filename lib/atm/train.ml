type pdu = { bytes : bytes; mutable sealed : bool; mutable crc_due : bool }

type t = {
  mutable vci : int;
  flow : int;
  pdu : pdu;
  first : int;
  count : int;
  total : int;
}

let window ~vci ~flow pdu =
  let len = Bytes.length pdu.bytes in
  if len = 0 || len mod Cell.payload_bytes <> 0 then
    invalid_arg "Train.make: buffer must be a whole number of cells";
  let total = len / Cell.payload_bytes in
  { vci; flow; pdu; first = 0; count = total; total }

let make ~vci ?(flow = Sim.Trace.no_flow) buf =
  window ~vci ~flow { bytes = buf; sealed = false; crc_due = false }

let seal ~vci ~flow pdu =
  window ~vci ~flow { bytes = pdu; sealed = true; crc_due = true }

let settle p =
  if p.crc_due then begin
    Crc32.put_trailer p.bytes;
    p.crc_due <- false
  end

(* Every mutable alias of the bytes leaves through here: the trailer
   is completed from the untouched bytes first, and the seal never
   comes back. *)
let revoke p =
  settle p;
  p.sealed <- false

let count t = t.count
let total t = t.total
let first t = t.first

let buf t =
  revoke t.pdu;
  t.pdu.bytes

let set_vci t vci = t.vci <- vci

let sub t ~first ~count =
  if first < 0 || count < 1 || first + count > t.count then
    invalid_arg "Train.sub: range out of bounds";
  { t with first = t.first + first; count }

let extend t ~count =
  if count < 1 || t.first + count > t.total then
    invalid_arg "Train.extend: range out of bounds";
  { t with count }

let same_pdu a b = a.pdu == b.pdu

let is_last t i =
  if i < 0 || i >= t.count then invalid_arg "Train.is_last: index out of bounds";
  t.first + i = t.total - 1

let contains_last t = t.first + t.count = t.total

let cell t i =
  revoke t.pdu;
  Cell.view ~vci:t.vci ~last:(is_last t i) ~flow:t.flow t.pdu.bytes
    ~off:((t.first + i) * Cell.payload_bytes)

let pdu t = t.pdu
let is_sealed p = p.sealed
let crc_due p = p.crc_due
let get_u16 p off = Util.get_u16 p.bytes off

(* A copy that reaches the CRC field sees the trailer the sender would
   have sent, so the CRC is completed first when still due. *)
let reading p ~pos ~len =
  if p.crc_due && pos + len > Bytes.length p.bytes - 4 then settle p

let copy p ~pos ~len =
  reading p ~pos ~len;
  Bytes.sub p.bytes pos len

let blit p ~pos dst dst_pos len =
  reading p ~pos ~len;
  Bytes.blit p.bytes pos dst dst_pos len
