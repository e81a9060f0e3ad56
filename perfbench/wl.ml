(* The interface every benchmark workload implements, plus the helpers
   they share.

   A workload builds its rig from the seed ([setup], timed as set-up)
   and then drives it ([measure], timed as the measured phase).  The
   measured phase advances in slices -- fixed simulated-time steps of
   [Engine.run ~until], or one world in city-admit -- each timed
   through {!slice}. *)

type result = {
  attempted : int;  (* simulated operations the workload issued *)
  failed : int;  (* of those, the ones its own checks found failed *)
  outcome : Outcome.t;
  counts : (string * float) list;
      (* program counters read after the run, keyed by the per-layer
         metric they feed *)
  notes : (string * int) list;  (* a breakdown of [failed] worth printing *)
}

type slicer = { mutable ns : int array; mutable n : int }

let slicer () = { ns = Array.make 256 0; n = 0 }

let slice sl f =
  let t0 = Span.now_ns () in
  f ();
  let d = Span.now_ns () - t0 in
  if sl.n = Array.length sl.ns then begin
    let a = Array.make (2 * sl.n) 0 in
    Array.blit sl.ns 0 a 0 sl.n;
    sl.ns <- a
  end;
  sl.ns.(sl.n) <- d;
  sl.n <- sl.n + 1

let slices_ms sl = Array.init sl.n (fun i -> float_of_int sl.ns.(i) /. 1e6)

type t =
  | W : {
      name : string;
      iteration_s : float;
          (* nominal host seconds of one iteration; it fixes how many
             iterations a run makes, so that count does not depend on
             how fast the code under test is *)
      setup : seed:int -> 'r;
      measure : 'r -> slicer -> result;
    }
      -> t

let name (W w) = w.name

(* Fresh engines with private, disabled observability sinks, so
   iterations never share state through the process-wide defaults. *)
let engine () =
  let s = Span.enter Span.sim_create ~req:(-1) in
  let e =
    Sim.Engine.create
      ~trace:(Sim.Trace.create ~enabled:false ())
      ~metrics:(Sim.Metrics.create ()) ()
  in
  Span.leave s;
  e

let run_until e at =
  let s = Span.enter Span.sim_run ~req:(-1) in
  Sim.Engine.run e ~until:at;
  Span.leave s

let run_all e =
  let s = Span.enter Span.sim_run ~req:(-1) in
  Sim.Engine.run e;
  Span.leave s

let counter m sub name = Sim.Metrics.value (Sim.Metrics.counter m ~sub name)

let events e = counter (Sim.Engine.metrics e) Sim.Subsystem.Sim "engine.events_fired"

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Seeds feed [Sim.Rng.create]; mixing in a per-workload salt keeps the
   streams of different workloads unrelated at equal seeds. *)
let rng ~salt seed =
  Sim.Rng.create ~seed:(Int64.of_int ((seed * 0x9E3779B1) lxor salt)) ()
