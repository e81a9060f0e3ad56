(* city-admit: many small independent E14-style worlds.

   Each world is a fresh engine and a small leaf-spine Clos fabric with
   a {!Atm.Qos_mgr}.  Offered load is swept geometrically across the
   worlds of an iteration; in each world a wave of contract requests
   (video, audio, RPC round-robin, seeded endpoints) is admitted,
   degraded or rejected, every fifth live contract departs, three
   review passes renegotiate, a few surviving contracts of each class
   carry a short burst of frames paced at their granted rate, and
   finally every contract is torn down.  Set-up only draws the request
   streams; building each world is part of the measured work, and one
   world is one slice. *)

(* The run's size; the tests run a smaller one. *)
type params = { worlds : int; offered_hi : int }

let default = { worlds = 160; offered_hi = 1024 }

let spines = 2
let leaves = 4
let hosts_per_leaf = 4
let offered_lo = 8
let sample_per_class = 2
let window = Sim.Time.ms 20  (* simulated length of the traffic sample *)
let churn_every = 5
let review_rounds = 3

(* (class, rate, frame bytes), requested round-robin as in E14. *)
let specs =
  [|
    (Atm.Qos_mgr.Video, 6_000_000, 8_192);
    (Atm.Qos_mgr.Audio, 768_000, 320);
    (Atm.Qos_mgr.Rpc, 128_000, 256);
  |]

(* One world's generated input: request endpoints as host indices. *)
type world = { src : int array; dst : int array }

type rig = { inputs : world array }

let offered (p : params) w =
  if p.worlds <= 1 then offered_lo
  else
    let f = float_of_int w /. float_of_int (p.worlds - 1) in
    int_of_float
      (Float.round
         (float_of_int offered_lo
         *. ((float_of_int p.offered_hi /. float_of_int offered_lo) ** f)))

let setup ?(p = default) ~seed () =
  let rng = Wl.rng ~salt:0xC17 seed in
  let hosts = leaves * hosts_per_leaf in
  let worlds =
    Array.init p.worlds (fun w ->
        let n = offered p w in
        let src = Array.make n 0 and dst = Array.make n 0 in
        for i = 0 to n - 1 do
          let s = Sim.Rng.int rng hosts in
          let d = Sim.Rng.int rng (hosts - 1) in
          src.(i) <- s;
          dst.(i) <- (if d >= s then d + 1 else d)
        done;
        { src; dst })
  in
  { inputs = worlds }

type totals = {
  mutable events : int;
  mutable accepted : int;
  mutable degraded : int;
  mutable rejected : int;
  mutable upgraded : int;
  mutable released : int;
  mutable sent : int;
  mutable delivered : int;
  mutable arrivals : int;  (* fold of (world, request, arrival ns) *)
  mutable leaked : int;  (* links still holding reservations at the end *)
  mutable cells : int;
}

let run_world tot wi (w : world) =
  let e = Wl.engine () in
  let s = Span.enter Span.atm_build ~req:wi in
  let net = Atm.Net.create e in
  let fabric =
    Atm.Net.clos net ~spines:spines ~leaves:leaves
      ~hosts_per_leaf:hosts_per_leaf ()
  in
  let qm = Atm.Qos_mgr.create ~path_attempts:spines net () in
  Span.leave s;
  let hosts = fabric.Atm.Net.cl_hosts in
  let n = Array.length w.src in
  let contracts = Array.make n None in
  for i = 0 to n - 1 do
    let cls, bps, _ = specs.(i mod Array.length specs) in
    let cell_rx, train_rx =
      Atm.Net.frame_rx_pair
        ~rx:(fun _ ->
          tot.delivered <- tot.delivered + 1;
          tot.arrivals <-
            Outcome.fold tot.arrivals
              ((((wi * 4096) + i) * 1_000_003)
              + Sim.Time.to_ns (Sim.Engine.now e)))
        ()
    in
    let s = Span.enter Span.atm_request ~req:i in
    let v =
      Atm.Qos_mgr.request qm ~cls ~bps ~src:hosts.(w.src.(i))
        ~dst:hosts.(w.dst.(i)) ~rx:cell_rx ~rx_train:train_rx ()
    in
    Span.leave s;
    match v with
    | Atm.Qos_mgr.Accepted c | Atm.Qos_mgr.Degraded c -> contracts.(i) <- Some c
    | Atm.Qos_mgr.Rejected -> ()
  done;
  let teardown c =
    let s = Span.enter Span.atm_teardown ~req:(Atm.Qos_mgr.contract_id c) in
    Atm.Qos_mgr.teardown qm c;
    Span.leave s
  in
  List.iteri
    (fun k c -> if k mod churn_every = churn_every - 1 then teardown c)
    (Atm.Qos_mgr.live qm);
  for _ = 1 to review_rounds do
    let s = Span.enter Span.atm_review ~req:wi in
    Atm.Qos_mgr.review qm;
    Span.leave s
  done;
  (* Traffic sample: the first surviving contracts of each class, in
     request order, send frames at their granted rate. *)
  let taken = Array.make (Array.length specs) 0 in
  Array.iteri
    (fun i c ->
      match c with
      | Some c when Atm.Qos_mgr.contract_vc c <> None ->
          let k = i mod Array.length specs in
          if taken.(k) < sample_per_class then begin
            taken.(k) <- taken.(k) + 1;
            let _, _, frame_bytes = specs.(k) in
            let vc = Option.get (Atm.Qos_mgr.contract_vc c) in
            let payload = Bytes.make frame_bytes 'c' in
            let period =
              frame_bytes * 8 * 1_000_000_000 / Atm.Qos_mgr.granted_bps c
            in
            let phase = i * 104_729 mod period in
            let rec frames f =
              let at = phase + (f * period) in
              if at < Sim.Time.to_ns window then begin
                ignore
                  (Sim.Engine.schedule_at e ~at:(Sim.Time.ns at) (fun () ->
                       tot.sent <- tot.sent + 1;
                       let s = Span.enter Span.atm_send ~req:i in
                       Atm.Net.send_frame vc payload;
                       Span.leave s));
                frames (f + 1)
              end
            in
            frames 0
          end
      | _ -> ())
    contracts;
  Wl.run_all e;
  tot.events <- tot.events + Wl.events e;
  tot.cells <-
    tot.cells
    + Wl.counter (Sim.Engine.metrics e) Sim.Subsystem.Atm "link.cells_sent";
  tot.accepted <- tot.accepted + Atm.Qos_mgr.accepted qm;
  tot.degraded <- tot.degraded + Atm.Qos_mgr.degraded qm;
  tot.rejected <- tot.rejected + Atm.Qos_mgr.rejected qm;
  tot.upgraded <- tot.upgraded + Atm.Qos_mgr.renegotiated qm;
  List.iter teardown (Atm.Qos_mgr.live qm);
  tot.released <- tot.released + Atm.Qos_mgr.released qm;
  List.iter
    (fun l -> if Atm.Link.reserved_bps l <> 0 then tot.leaked <- tot.leaked + 1)
    (Atm.Net.links net)

let measure r sl =
  let tot =
    {
      events = 0;
      accepted = 0;
      degraded = 0;
      rejected = 0;
      upgraded = 0;
      released = 0;
      sent = 0;
      delivered = 0;
      arrivals = 0;
      leaked = 0;
      cells = 0;
    }
  in
  Array.iteri (fun wi w -> Wl.slice sl (fun () -> run_world tot wi w)) r.inputs;
  let o = Outcome.create () in
  let i = Outcome.int o in
  i "worlds" (Array.length r.inputs);
  i "events" tot.events;
  i "accepted" tot.accepted;
  i "degraded" tot.degraded;
  i "rejected" tot.rejected;
  i "upgraded" tot.upgraded;
  i "released" tot.released;
  i "sent" tot.sent;
  i "delivered" tot.delivered;
  i "arrivals" tot.arrivals;
  i "leaked" tot.leaked;
  i "cells" tot.cells;
  let admitted = tot.accepted + tot.degraded in
  {
    Wl.attempted = admitted + tot.sent;
    failed =
      (tot.sent - tot.delivered)
      + (if tot.leaked > 0 || tot.released <> admitted then admitted else 0);
    outcome = o;
    counts =
      [
        ("sim.events", float_of_int tot.events);
        ("sim.engines", float_of_int (Array.length r.inputs));
        ("atm.cells_sent", float_of_int tot.cells);
      ];
    notes = [];
  }

let workload ?p () =
  Wl.W
    {
      name = "city-admit";
      iteration_s = 0.45;
      setup = (fun ~seed -> setup ?p ~seed ());
      measure;
    }
