(* Iteration loop, host-cost measurement and metric derivation.

   One iteration = one set-up (timed) plus one measured phase (timed,
   slice by slice, with GC deltas).  A run makes a fixed number of
   iterations, set by the workload's nominal iteration time and the
   run's time budget only, so a faster and a slower build take their
   best observations over the same number of samples.  Every iteration
   does the same simulated work slice for slice, so host times are
   reported from the best observations: on a shared host the same code
   runs up to 1.5x slower in stretches of seconds, and a median reports
   whichever state dominated the run (see README.md, "Host noise"). *)

type iter = {
  setup_s : float;
  wall_s : float;
  slices : float array;  (* host ms per slice *)
  alloc_mb : float;
  minor_words : float;
  promoted_mb : float;
  minor_collections : int;
  major_collections : int;
  res : Wl.result;
  digest : string;
  agg : Span.agg option;  (* traced iterations only *)
}

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let iteration (Wl.W w) ~seed ~traced =
  Gc.compact ();
  Span.stop ();
  let t0 = Span.now_ns () in
  let r = w.setup ~seed in
  let t1 = Span.now_ns () in
  let sl = Wl.slicer () in
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  if traced then Span.reset ~on:true;
  let t2 = Span.now_ns () in
  let res = w.measure r sl in
  let t3 = Span.now_ns () in
  let agg = if traced then Some (Span.aggregate ()) else None in
  Span.stop ();
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  {
    setup_s = float_of_int (t1 - t0) /. 1e9;
    wall_s = float_of_int (t3 - t2) /. 1e9;
    slices = Wl.slices_ms sl;
    alloc_mb = (a1 -. a0) /. 1e6;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_mb = mb_of_words (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    res;
    digest = Outcome.digest res.Wl.outcome;
    agg;
  }

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, i.e. percentile 100 * (n - 10) / n.  Below
   eleven samples it is the maximum. *)
let tail xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(Stdlib.max 0 (n - 11))

let tail_percentile n =
  if n <= 10 then 100.0 else 100.0 *. float_of_int (n - 10) /. float_of_int n

let med f its = median (Array.of_list (List.map f its))
let best f its = List.fold_left (fun m i -> Float.min m (f i)) infinity its

(* Slice [k]'s best host time over the iterations.  Slices last
   milliseconds, so each one meets the host's fast state in some
   iteration even when no whole iteration does. *)
let best_slices its =
  let first = (List.hd its).slices in
  Array.mapi
    (fun k _ -> best (fun i -> i.slices.(k)) its)
    first

let sum a = Array.fold_left ( +. ) 0.0 a

(* The measured phase is its slices plus the benchmark's own work between
   them; the latter is taken from the iteration where it was least. *)
let wall its =
  (sum (best_slices its) /. 1e3)
  +. best (fun i -> i.wall_s -. (sum i.slices /. 1e3)) its

(* Metrics are (name, value, unit); the names and units are the ones
   BENCHMARK.json declares. *)
let end_to_end its =
  let peak =
    mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)
  in
  let slices = best_slices its in
  [
    ("wall_s", wall its, "s");
    ("setup_s", best (fun i -> i.setup_s) its, "s");
    ("slice_ms_p50", median slices, "ms");
    ("slice_ms_tail", tail slices, "ms");
    ("alloc_mb", med (fun i -> i.alloc_mb) its, "MB");
    ("peak_heap_mb", peak, "MB");
  ]

let count res key =
  match List.assoc_opt key res.Wl.counts with Some v -> v | None -> 0.0

let per_div a b = if b = 0.0 then 0.0 else a /. b

(* Per-layer values of one traced iteration. *)
let layer_values it =
  let agg = Option.get it.agg in
  let calls k = float_of_int agg.Span.calls.(k) in
  let secs k = float_of_int agg.Span.total_ns.(k) /. 1e9 in
  let mean_us k = per_div (secs k *. 1e6) (calls k) in
  let c = count it.res in
  let events = c "sim.events" in
  let self l = float_of_int (Span.layer_self_ns agg l) /. 1e9 in
  [
    ("sim.run_s", secs Span.sim_run, "s");
    ("sim.events", events, "count");
    ( "sim.ns_per_event",
      per_div ((secs Span.sim_run +. secs Span.shard_run) *. 1e9) events,
      "ns" );
    ("sim.engines", c "sim.engines", "count");
    ("sim.create_us", mean_us Span.sim_create, "us");
    ("sim.minor_words_per_event", per_div it.minor_words events, "words");
    ("shard.run_s", secs Span.shard_run, "s");
    ("shard.epochs", c "shard.epochs", "count");
    ("shard.messages", c "shard.messages", "count");
    ( "shard.us_per_epoch",
      per_div (secs Span.shard_run *. 1e6) (c "shard.epochs"),
      "us" );
    ("pfs.write_calls", calls Span.pfs_write, "count");
    ("pfs.write_s", secs Span.pfs_write, "s");
    ("pfs.sync_s", secs Span.pfs_sync, "s");
    ("pfs.sealed", c "pfs.sealed", "count");
    ( "pfs.us_per_seal",
      per_div (secs Span.pfs_sync *. 1e6) (c "pfs.seals_in_calls"),
      "us" );
    ("pfs.clean_s", secs Span.pfs_clean, "s");
    ("pfs.clean_entries", c "pfs.clean_entries", "count");
    ("pfs.clean_yield", c "pfs.clean_yield", "ratio");
    ("pfs.recover_s", secs Span.pfs_recover, "s");
    ("pfs.lost", c "pfs.lost", "count");
    ("pfs.dir_reads", calls Span.pfs_dir_read, "count");
    ("pfs.dir_read_s", secs Span.pfs_dir_read, "s");
    ("pfs.cached_ratio", c "pfs.cached_ratio", "ratio");
    ("pfs.replica_ratio", c "pfs.replica_ratio", "ratio");
    ("pfs.copy_yield", c "pfs.copy_yield", "ratio");
    ("atm.frames", calls Span.atm_send, "count");
    ("atm.send_s", secs Span.atm_send, "s");
    ("atm.cells_sent", c "atm.cells_sent", "count");
    ( "atm.ns_per_cell",
      per_div (secs Span.atm_send *. 1e9) (c "atm.cells_sent"),
      "ns" );
    ("atm.request_us", mean_us Span.atm_request, "us");
    ("atm.teardown_us", mean_us Span.atm_teardown, "us");
    ("atm.review_s", secs Span.atm_review, "s");
    ("gc.minor_collections", float_of_int it.minor_collections, "count");
    ("gc.major_collections", float_of_int it.major_collections, "count");
    ("gc.promoted_mb", it.promoted_mb, "MB");
    ("self_s.sim", self Span.Sim, "s");
    ("self_s.atm", self Span.Atm, "s");
    ("self_s.pfs", self Span.Pfs, "s");
    ("self_s.workloads", self Span.Workloads, "s");
    ( "self_s.driver",
      it.wall_s -. (float_of_int agg.Span.top_ns /. 1e9),
      "s" );
  ]

(* Per-layer values come from the fastest traced iteration, so they are
   one consistent snapshot (self times add up to its wall time). *)
let per_layer ~traced ~untraced =
  let fastest =
    List.fold_left (fun a i -> if i.wall_s < a.wall_s then i else a)
      (List.hd traced) traced
  in
  layer_values fastest
  @ [ ("trace.overhead_frac", (wall traced /. wall untraced) -. 1.0, "ratio") ]

(* Iterations a run makes: [seconds] of the workload's nominal
   iteration time, at least one; a traced run needs an untraced and a
   traced one. *)
let iterations (Wl.W w) ~seconds ~trace =
  let n = Stdlib.max 1 (int_of_float (seconds /. w.iteration_s)) in
  if trace then Stdlib.max 2 n else n

(* However slow the build, a run stops after this many host seconds. *)
let max_run_s = 150.0

(* Make the run's iterations after one warm-up iteration that is
   checked but not reported.  With [trace], iterations alternate
   untraced and traced so both see the same machine conditions. *)
let run w ~seed ~seconds ~trace =
  let warm = iteration w ~seed ~traced:false in
  let n = iterations w ~seconds ~trace in
  let deadline = Span.now_ns () + int_of_float (max_run_s *. 1e9) in
  let rec go k acc =
    if k = n || (k >= 2 && Span.now_ns () >= deadline) then List.rev acc
    else go (k + 1) (iteration w ~seed ~traced:(trace && k mod 2 = 1) :: acc)
  in
  (warm, go 0 [])
