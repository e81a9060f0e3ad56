let size = 8
let raw_bytes = size * size
let trailer_bytes = 20

type packet = {
  x : int;
  y : int;
  frame : int;
  count : int;
  bytes_per_tile : int;
  captured_at : Sim.Time.t;
  data : bytes;
}

let marshal p =
  let data_len = p.count * p.bytes_per_tile in
  assert (Bytes.length p.data = data_len);
  let b = Bytes.create (data_len + trailer_bytes) in
  Bytes.blit p.data 0 b 0 data_len;
  Util.put_u16 b data_len p.x;
  Util.put_u16 b (data_len + 2) p.y;
  Util.put_u32 b (data_len + 4) p.frame;
  Util.put_u16 b (data_len + 8) p.count;
  Util.put_u16 b (data_len + 10) p.bytes_per_tile;
  Util.put_time b (data_len + 12) p.captured_at;
  b

let unmarshal b =
  let len = Bytes.length b in
  if len < trailer_bytes then None
  else begin
    let base = len - trailer_bytes in
    let count = Util.get_u16 b (base + 8) in
    let bytes_per_tile = Util.get_u16 b (base + 10) in
    if count * bytes_per_tile <> base then None
    else
      Some
        {
          x = Util.get_u16 b base;
          y = Util.get_u16 b (base + 2);
          frame = Util.get_u32 b (base + 4);
          count;
          bytes_per_tile;
          captured_at = Util.get_time b (base + 12);
          data = Bytes.sub b 0 base;
        }
  end
