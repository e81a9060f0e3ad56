(* The tables are forced at module initialisation: [digest] sits on the
   per-frame hot path and must not pay a [Lazy.force] (a caml_modify +
   branch) per call.

   [digest] uses slicing-by-8: eight derived tables let the loop consume
   eight bytes per iteration with a single xor-combine, cutting the
   serial table-lookup dependency chain from eight steps per 8 bytes to
   one.  Each step reads its eight bytes with one unchecked 64-bit
   load, taken as little-endian (byte-swapped on a big-endian host),
   and splits it into 32-bit halves: [lo] is bytes i..i+3 and [hi]
   bytes i+4..i+7, first byte lowest.  Those are exactly the words a
   byte-at-a-time assembly of the same bytes produces, so every table
   index, and the result, is unchanged.  The result is bit-identical to
   the classic byte-at-a-time CRC-32 (reflected, polynomial
   0xEDB88320), which the KAT test pins and a differential test checks
   on random ranges. *)
let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let derive prev =
  Array.init 256 (fun n -> t0.(prev.(n) land 0xff) lxor (prev.(n) lsr 8))
let t1 = derive t0
let t2 = derive t1
let t3 = derive t2
let t4 = derive t3
let t5 = derive t4
let t6 = derive t5
let t7 = derive t6

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Safe: [digest] bounds-checks the whole range before the loop. *)
let[@inline] load64_le b i =
  if Sys.big_endian then bswap64 (get64u b i) else get64u b i

let digest b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest: range out of bounds";
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let w = load64_le b !i in
    (* The [hi] lookups do not depend on [c], so they are combined
       apart and joined last: only [lo]'s four lookups and a two-level
       xor lie on the loop-carried chain. *)
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    let h =
      Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor (Array.unsafe_get t1 ((hi lsr 16) land 0xff)
           lxor Array.unsafe_get t0 ((hi lsr 24) land 0xff))
    in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    c :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor (Array.unsafe_get t5 ((lo lsr 16) land 0xff)
           lxor Array.unsafe_get t4 ((lo lsr 24) land 0xff))
      lxor h;
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b j) in
    c := Array.unsafe_get t0 ((!c lxor byte) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest_bytes b = digest b ~pos:0 ~len:(Bytes.length b)

let put_trailer pdu =
  let n = Bytes.length pdu - 4 in
  Bytes.set_int32_be pdu n (Int32.of_int (digest pdu ~pos:0 ~len:n))
