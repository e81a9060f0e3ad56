(* fabric-shard: the 8-site Fabric ring under Sim.Shard, on one domain.

   The PAR rig: each site is one shard with a private engine and an ATM
   switch; camera hosts stream fixed-rate video to a local display, and
   every [cross_every]-th frame of stream 0 is also forwarded to the
   next site through {!Sim.Shard.post} with the trunk delay, which
   {!Atm.Net.cut_lookahead} derives from a single-net blueprint of the
   whole ring.  Unlike the experiment, sources stop at [duration] and a
   final run drains every frame in flight, so every frame sent is
   accounted for.  Set-up builds the blueprint, shards and sites; the
   measured phase is [Shard.run ~until] in fixed simulated steps. *)

(* The run's size and pacing; the tests run a smaller one. *)
type params = {
  sites : int;
  streams_per_site : int;
  duration : Sim.Time.t;
  step : Sim.Time.t;
}

let default =
  {
    sites = 8;
    streams_per_site = 24;
    duration = Sim.Time.ms 200;
    step = Sim.Time.ms 2;
  }

let frame_bytes = 8_192
let fps = 250
let cross_every = 4
let trunk_prop = Sim.Time.ms 2

type site = {
  mutable local : int;
  mutable remote : int;
  mutable digest : int;  (* fold over (arrival ns, stream, origin) *)
}

type rig = {
  p : params;
  shard : Sim.Shard.t;
  states : site array;
  mutable sent : int;
}

let note st e ~stream ~origin =
  st.digest <-
    Outcome.fold
      (Outcome.fold st.digest (Sim.Time.to_ns (Sim.Engine.now e)))
      ((stream * 31) + origin)

let send_frame vc payload ~req =
  let s = Span.enter Span.atm_send ~req in
  Atm.Net.send_frame vc payload;
  Span.leave s

(* The whole ring as one never-run net, to derive the shard lookahead. *)
let lookahead p =
  let e = Wl.engine () in
  let net = Atm.Net.create e in
  let sws =
    Array.init p.sites (fun i ->
        Atm.Net.add_switch net ~name:(Printf.sprintf "sw%d" i) ~ports:(p.sites + 4))
  in
  Array.iteri
    (fun i sw ->
      List.iter
        (fun h ->
          let host = Atm.Net.add_host net ~name:(Printf.sprintf "%s%d" h i) in
          Atm.Net.connect net ~bandwidth_bps:10_000_000_000 host sw)
        [ "cam"; "disp"; "gw" ])
    sws;
  if p.sites > 1 then
    Array.iteri
      (fun i sw ->
        Atm.Net.connect net ~bandwidth_bps:2_400_000_000 ~prop:trunk_prop sw
          sws.((i + 1) mod p.sites))
      sws;
  let assign = Atm.Net.partition net ~parts:p.sites in
  match Atm.Net.cut_lookahead net ~assign with
  | Some l -> l
  | None -> trunk_prop

let setup ?(p = default) ~seed () =
  let lookahead = lookahead p in
  let shard = Sim.Shard.create ~lookahead ~shards:p.sites () in
  let states = Array.init p.sites (fun _ -> { local = 0; remote = 0; digest = 0 }) in
  let r = { p; shard; states; sent = 0 } in
  let period_ns = 1_000_000_000 / fps in
  let stop_ns = Sim.Time.to_ns p.duration in
  let payload = Bytes.make frame_bytes 'x' in
  let ingress = Array.make p.sites None in
  let built =
    Array.init p.sites (fun i ->
        let e = Sim.Shard.engine shard i in
        let net = Atm.Net.create e in
        let sw = Atm.Net.add_switch net ~name:"sw" ~ports:8 in
        let q = Atm.Aal5.frame_cells frame_bytes + 64 in
        let host name =
          let h = Atm.Net.add_host net ~name in
          Atm.Net.connect net ~bandwidth_bps:10_000_000_000 ~queue_cells:q h sw;
          h
        in
        let cam = host "cam" and disp = host "disp" and gw = host "gw" in
        let st = states.(i) in
        let vcs =
          Array.init p.streams_per_site (fun s ->
              let cell_rx, train_rx =
                Atm.Net.frame_rx_pair
                  ~rx:(fun _ ->
                    st.local <- st.local + 1;
                    note st e ~stream:s ~origin:i)
                  ()
              in
              Atm.Net.open_vc net ~src:cam ~dst:disp ~rx:cell_rx ~rx_train:train_rx)
        in
        let cell_rx, train_rx =
          Atm.Net.frame_rx_pair
            ~rx:(fun _ ->
              st.remote <- st.remote + 1;
              note st e ~stream:(-1) ~origin:((i + p.sites - 1) mod p.sites))
            ()
        in
        ingress.(i) <-
          Some (Atm.Net.open_vc net ~src:gw ~dst:disp ~rx:cell_rx ~rx_train:train_rx);
        (e, vcs))
  in
  (* Sources pace frames at [fps] until [duration]; the forwarded
     frames cross shards over the trunk.  Each site's first stream
     starts at a seeded phase and the others follow at even spacing
     over the period, so one camera's frames never queue behind each
     other and every slice carries the same number of frames. *)
  let rng = Wl.rng ~salt:0xFAB seed in
  let spacing = period_ns / p.streams_per_site in
  Array.iteri
    (fun i (e, vcs) ->
      let base = Sim.Rng.int rng period_ns in
      Array.iteri
        (fun s vc ->
          let phase = (base + (s * spacing)) mod period_ns in
          let frame = ref 0 in
          let rec tick () =
            if Sim.Time.to_ns (Sim.Engine.now e) < stop_ns then begin
              let req = (((i * p.streams_per_site) + s) * 1_000_000) + !frame in
              r.sent <- r.sent + 1;
              send_frame vc payload ~req;
              if s = 0 && !frame mod cross_every = 0 && p.sites > 1 then begin
                let dst = (i + 1) mod p.sites in
                let at = Sim.Time.add (Sim.Engine.now e) trunk_prop in
                let data = Bytes.copy payload in
                r.sent <- r.sent + 1;
                let sp = Span.enter Span.shard_post ~req in
                Sim.Shard.post shard ~src:i ~dst ~at (fun () ->
                    match ingress.(dst) with
                    | Some gvc -> send_frame gvc data ~req
                    | None -> invalid_arg "fabric-shard: no ingress VC");
                Span.leave sp
              end;
              incr frame;
              ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ns period_ns) tick)
            end
          in
          ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ns phase) tick))
        vcs)
    built;
  r

let shard_run ?until r =
  let s = Span.enter Span.shard_run ~req:(-1) in
  Sim.Shard.run ~domains:1 ?until r.shard;
  Span.leave s

let measure r sl =
  let p = r.p in
  let engines = List.init p.sites (Sim.Shard.engine r.shard) in
  let sum f = List.fold_left (fun a e -> a + f e) 0 engines in
  let ev0 = sum Wl.events in
  let epochs0 = Sim.Shard.epochs r.shard in
  let steps = Sim.Time.to_ns p.duration / Sim.Time.to_ns p.step in
  for k = 1 to steps do
    Wl.slice sl (fun () -> shard_run ~until:(Sim.Time.mul p.step k) r)
  done;
  Wl.slice sl (fun () -> shard_run r);
  let cells e = Wl.counter (Sim.Engine.metrics e) Sim.Subsystem.Atm "link.cells_sent" in
  let o = Outcome.create () in
  let i = Outcome.int o in
  let delivered = ref 0 in
  Array.iteri
    (fun s st ->
      delivered := !delivered + st.local + st.remote;
      i (Printf.sprintf "site%d_local" s) st.local;
      i (Printf.sprintf "site%d_remote" s) st.remote;
      i (Printf.sprintf "site%d_digest" s) st.digest)
    r.states;
  i "sent" r.sent;
  i "messages" (Sim.Shard.messages r.shard);
  i "cells" (sum cells);
  i "events" (sum Wl.events - ev0);
  {
    Wl.attempted = r.sent;
    failed = r.sent - !delivered;
    outcome = o;
    counts =
      [
        ("sim.events", float_of_int (sum Wl.events - ev0));
        ("shard.epochs", float_of_int (Sim.Shard.epochs r.shard - epochs0));
        ("shard.messages", float_of_int (Sim.Shard.messages r.shard));
        ("atm.cells_sent", float_of_int (sum cells));
      ];
    notes = [];
  }

let workload ?p () =
  Wl.W
    {
      name = "fabric-shard";
      iteration_s = 0.6;
      setup = (fun ~seed -> setup ?p ~seed ());
      measure;
    }
