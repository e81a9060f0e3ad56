(* In-memory span recorder for the traced run.

   The benchmark wraps each of its own calls into a layer's public
   functions in [enter]/[leave].  A span holds its kind, host start and
   end (monotonic ns), the enclosing span and a per-request id.  Spans
   live in growable int arrays and are only written out when the run
   ends.  With recording off, [enter] is one load and one branch and
   [leave] is a no-op, so the untraced run pays next to nothing. *)

type layer = Sim | Atm | Pfs | Workloads

(* Span kinds.  [names] and [layers] are indexed by these codes. *)
let sim_create = 0
let sim_run = 1
let shard_run = 2
let shard_post = 3
let atm_build = 4
let atm_send = 5
let atm_request = 6
let atm_teardown = 7
let atm_review = 8
let pfs_write = 9
let pfs_sync = 10
let pfs_clean = 11
let pfs_recover = 12
let pfs_dir_read = 13
let pfs_create = 14
let pfs_delete = 15
let wl_gen = 16

let names =
  [|
    "sim.create"; "sim.run"; "shard.run"; "shard.post"; "atm.build";
    "atm.send"; "atm.request"; "atm.teardown"; "atm.review"; "pfs.write";
    "pfs.sync"; "pfs.clean"; "pfs.recover"; "pfs.dir_read"; "pfs.create";
    "pfs.delete"; "wl.gen";
  |]

let layers =
  [|
    Sim; Sim; Sim; Sim; Atm; Atm; Atm; Atm; Atm; Pfs; Pfs; Pfs; Pfs; Pfs;
    Pfs; Pfs; Workloads;
  |]

let kinds = Array.length names

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  mutable on : bool;
  mutable n : int;
  mutable cur : int;  (* innermost open span, -1 at top level *)
  mutable kind : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
}

let b =
  {
    on = false;
    n = 0;
    cur = -1;
    kind = [||];
    start = [||];
    stop = [||];
    parent = [||];
    req = [||];
  }

let grow () =
  let cap = Stdlib.max 4096 (2 * Array.length b.kind) in
  let ext a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.kind <- ext b.kind;
  b.start <- ext b.start;
  b.stop <- ext b.stop;
  b.parent <- ext b.parent;
  b.req <- ext b.req

(* Drop every recorded span and set whether new ones are recorded. *)
let reset ~on =
  b.on <- on;
  b.n <- 0;
  b.cur <- -1

(* Stop recording, keeping what was recorded for [aggregate] and
   [write_jsonl]. *)
let stop () = b.on <- false

(* Open a span; returns its index, or -1 when recording is off. *)
let enter kind ~req =
  if not b.on then -1
  else begin
    if b.n = Array.length b.kind then grow ();
    let i = b.n in
    b.kind.(i) <- kind;
    b.parent.(i) <- b.cur;
    b.req.(i) <- req;
    b.n <- i + 1;
    b.cur <- i;
    b.start.(i) <- now_ns ();
    i
  end

let leave i =
  if i >= 0 then begin
    b.stop.(i) <- now_ns ();
    b.cur <- b.parent.(i)
  end

(* Per-kind totals over the recorded spans.  Spans nest strictly (one
   thread, one domain), so a span's self time is its duration minus the
   durations of its direct children. *)
type agg = {
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  top_ns : int;  (* summed duration of spans with no parent *)
}

let aggregate () =
  let calls = Array.make kinds 0 in
  let total_ns = Array.make kinds 0 in
  let self_ns = Array.make kinds 0 in
  let top = ref 0 in
  for i = 0 to b.n - 1 do
    let k = b.kind.(i) in
    let d = b.stop.(i) - b.start.(i) in
    calls.(k) <- calls.(k) + 1;
    total_ns.(k) <- total_ns.(k) + d;
    self_ns.(k) <- self_ns.(k) + d;
    let p = b.parent.(i) in
    if p >= 0 then self_ns.(b.kind.(p)) <- self_ns.(b.kind.(p)) - d
    else top := !top + d
  done;
  { calls; total_ns; self_ns; top_ns = !top }

let layer_self_ns agg layer =
  let s = ref 0 in
  Array.iteri (fun k l -> if l = layer then s := !s + agg.self_ns.(k)) layers;
  !s

(* One JSON object per span, times relative to the first span. *)
let write_jsonl path =
  let oc = open_out path in
  let t0 = if b.n > 0 then b.start.(0) else 0 in
  for i = 0 to b.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
      i names.(b.kind.(i)) (b.start.(i) - t0) (b.stop.(i) - t0) b.parent.(i)
      b.req.(i)
  done;
  close_out oc
