(* vod-flash: the read side of the file service over an ATM fabric.

   The E15 rig at its 64-client peak: four file servers and the clients
   hang off one switch ({!Atm.Net.fan}), a {!Pfs.Directory} with
   replication and a per-server block cache shards a 32-title catalogue
   over the servers, and closed-loop Zipf clients ({!Workloads.Vod})
   read 64 KB chunks, with a scripted popularity flip half-way.  Every
   network leg (request, response, replica copy) is a chain of AAL5
   frames on its own pipe, paced at line rate, so the fabric carries
   trains.  Set-up builds the fabric and servers and preloads and seals
   the catalogue; the measured phase is the client traffic. *)

(* The run's size and pacing; the tests run a smaller one. *)
type params = {
  clients : int;
  half : Sim.Time.t;  (* the flip comes after [half], the end after two *)
  step : Sim.Time.t;
}

let default = { clients = 64; half = Sim.Time.ms 1_000; step = Sim.Time.ms 10 }

let servers = 4
let files = 32
let file_bytes = 262_144
let read_bytes = 65_536
let seg_bytes = 262_144
let zipf_s = 1.3
let bandwidth_bps = 100_000_000
let queue_cells = 32_768
let req_bytes = 64
let chunk_bytes = 32_768

let config =
  {
    Pfs.Directory.default_config with
    cache_blocks = 128;
    cache_block_bytes = 8_192;
  }

type stats = {
  mutable started : int;
  mutable ok : int;
  mutable errors : int;
  mutable lat_fold : int;  (* simulated read latencies, completion order *)
  mutable lat_sum_ns : int;
  cur_req : int array;  (* each closed-loop client's outstanding read *)
}

type rig = {
  p : params;
  e : Sim.Engine.t;
  net : Atm.Net.t;
  dir : Pfs.Directory.t;
  seed : int;
  st : stats;
}

let send_frame vc payload ~req =
  let s = Span.enter Span.atm_send ~req in
  Atm.Net.send_frame vc payload;
  Span.leave s

let setup ?(p = default) ~seed () =
  let e = Wl.engine () in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"sw" ~ports:(servers + p.clients) in
  let fan prefix n =
    Atm.Net.fan net ~bandwidth_bps ~queue_cells ~switch:sw ~prefix ~n
  in
  let srv = fan "srv" servers in
  let cli = fan "cli" p.clients in
  (* Each leg has its own pipe; a FIFO of continuations per pipe maps
     in-order frame arrivals back to the directory's callbacks. *)
  let pipe src dst =
    let q = Queue.create () in
    let vc = Atm.Net.open_pipe net ~src ~dst ~rx:(fun ~flow:_ _ -> Queue.pop q ()) in
    (vc, q)
  in
  let req_vc = Array.map (fun c -> Array.map (fun s -> pipe c s) srv) cli in
  let resp_vc = Array.map (fun s -> Array.map (fun c -> pipe s c) cli) srv in
  let copy_vc =
    Array.mapi
      (fun i s -> Array.mapi (fun j d -> if i = j then None else Some (pipe s d)) srv)
      srv
  in
  let cell_time = Atm.Cell.tx_time ~bandwidth_bps in
  let cli_free = Array.make p.clients Sim.Time.zero in
  let srv_free = Array.make servers Sim.Time.zero in
  let payloads = Hashtbl.create 4 in
  let payload len =
    match Hashtbl.find_opt payloads len with
    | Some b -> b
    | None ->
        let b = Bytes.make len 'v' in
        Hashtbl.replace payloads len b;
        b
  in
  (* Line-rate pacing against a per-host ship-free horizon; a message
     longer than one frame travels as several, and only the last one
     runs the continuation. *)
  let send_msg free i (vc, q) ~req ~len ~k =
    let rec go off =
      let n = Stdlib.min chunk_bytes (len - off) in
      let last = off + n >= len in
      Queue.push (if last then k else fun () -> ()) q;
      let tx = Sim.Time.mul cell_time (Atm.Aal5.frame_cells n) in
      let start = Sim.Time.max (Sim.Engine.now e) free.(i) in
      free.(i) <- Sim.Time.add start tx;
      let data = payload n in
      ignore
        (Sim.Engine.schedule_at e ~at:start (fun () -> send_frame vc data ~req));
      if not last then go (off + n)
    in
    go 0
  in
  let st =
    {
      started = 0;
      ok = 0;
      errors = 0;
      lat_fold = 0;
      lat_sum_ns = 0;
      cur_req = Array.make p.clients (-1);
    }
  in
  let transport =
    {
      Pfs.Directory.t_request =
        (fun ~client ~server ~flow:_ ~k ->
          send_msg cli_free client req_vc.(client).(server)
            ~req:st.cur_req.(client) ~len:req_bytes ~k);
      t_respond =
        (fun ~server ~client ~flow:_ ~len ~k ->
          send_msg srv_free server resp_vc.(server).(client)
            ~req:st.cur_req.(client) ~len ~k);
      t_copy =
        (fun ~src ~dst ~len ~k ->
          match copy_vc.(src).(dst) with
          | Some pq -> send_msg srv_free src pq ~req:(-1) ~len ~k
          | None -> invalid_arg "vod-flash: copy to self");
    }
  in
  let logs =
    Array.init servers (fun _ ->
        let raid = Pfs.Raid.create e ~segment_bytes:seg_bytes () in
        Pfs.Log.create e ~raid ())
  in
  let dir = Pfs.Directory.create e ~logs ~transport ~config () in
  for i = 0 to files - 1 do
    let fid = Pfs.Directory.create_file dir ~kind:Pfs.Log.Continuous () in
    if fid <> i then failwith "vod-flash: unexpected file id";
    Pfs.Directory.write dir fid ~off:0 ~len:file_bytes (function
      | Ok () -> ()
      | Error _ -> failwith "vod-flash: preload write failed")
  done;
  Pfs.Directory.sync dir ~k:(function
    | Ok () -> ()
    | Error _ -> failwith "vod-flash: preload sync failed");
  Sim.Engine.run e;
  { p; e; net; dir; seed; st }

(* The client population; each client's think times and title draws
   come from its own split of the seeded stream. *)
let generator e ~seed ~ops p ~t0 =
  Workloads.Vod.create e ~rng:(Wl.rng ~salt:0xE15 seed) ~ops
    ~clients:p.clients ~files ~file_bytes ~read_bytes ~zipf_s
    ~flip_at:(Sim.Time.add t0 p.half)
    ~stop_at:(Sim.Time.add t0 (Sim.Time.mul p.half 2))
    ()

let measure r sl =
  let p = r.p and e = r.e and st = r.st and dir = r.dir in
  let t0 = Sim.Engine.now e in
  let ev0 = Wl.events e in
  let cells0 = Wl.counter (Sim.Engine.metrics e) Sim.Subsystem.Atm "link.cells_sent" in
  let ops =
    {
      Workloads.Vod.op_read =
        (fun ~client ~fid ~off ~len ~k ->
          let req = st.started in
          st.started <- req + 1;
          st.cur_req.(client) <- req;
          let issued = Sim.Time.to_ns (Sim.Engine.now e) in
          let s = Span.enter Span.pfs_dir_read ~req in
          Pfs.Directory.read dir ~client fid ~off ~len ~k:(fun res ->
              (match res with
              | Ok _ ->
                  let d = Sim.Time.to_ns (Sim.Engine.now e) - issued in
                  st.ok <- st.ok + 1;
                  st.lat_fold <- Outcome.fold st.lat_fold d;
                  st.lat_sum_ns <- st.lat_sum_ns + d
              | Error _ -> st.errors <- st.errors + 1);
              k ());
          Span.leave s);
    }
  in
  let g = Span.enter Span.wl_gen ~req:(-1) in
  let v = generator e ~seed:r.seed ~ops p ~t0 in
  Workloads.Vod.start v;
  Span.leave g;
  let steps = 2 * Sim.Time.to_ns p.half / Sim.Time.to_ns p.step in
  for k = 1 to steps do
    Wl.slice sl (fun () ->
        Wl.run_until e (Sim.Time.add t0 (Sim.Time.mul p.step k)))
  done;
  (* Reads in flight at the stop instant complete in one last slice. *)
  Wl.slice sl (fun () -> Wl.run_all e);
  let module D = Pfs.Directory in
  let cells = Wl.counter (Sim.Engine.metrics e) Sim.Subsystem.Atm "link.cells_sent" - cells0 in
  let dropped = Atm.Net.total_cells_dropped r.net in
  let o = Outcome.create () in
  let i = Outcome.int o in
  i "now_ns" (Sim.Time.to_ns (Sim.Engine.now e));
  i "events" (Wl.events e - ev0);
  i "started" st.started;
  i "ok" st.ok;
  i "errors" st.errors;
  i "vod_done" (Workloads.Vod.reads_done v);
  i "vod_bytes" (Workloads.Vod.bytes_read v);
  i "lat_fold" st.lat_fold;
  i "lat_sum_ns" st.lat_sum_ns;
  i "reads_total" (D.reads_total dir);
  i "reads_home" (D.reads_home dir);
  i "reads_replica" (D.reads_replica dir);
  i "reads_cached" (D.reads_cached dir);
  i "repl_started" (D.replications_started dir);
  i "repl_completed" (D.replications_completed dir);
  i "repl_discarded" (D.replications_discarded dir);
  i "replicas_dropped" (D.replicas_dropped dir);
  for s = 0 to servers - 1 do
    i (Printf.sprintf "server%d_reads" s) (D.server_reads dir s)
  done;
  i "cells" cells;
  i "dropped" dropped;
  {
    Wl.attempted = st.started;
    failed = st.started - st.ok + (if dropped > 0 then 1 else 0);
    outcome = o;
    counts =
      [
        ("sim.events", float_of_int (Wl.events e - ev0));
        ("atm.cells_sent", float_of_int cells);
        ("pfs.cached_ratio", Wl.ratio (D.reads_cached dir) (D.reads_total dir));
        ("pfs.replica_ratio", Wl.ratio (D.reads_replica dir) (D.reads_total dir));
        ( "pfs.copy_yield",
          Wl.ratio (D.replications_completed dir) (D.replications_started dir) );
      ];
    notes = [];
  }

let workload ?p () =
  Wl.W
    {
      name = "vod-flash";
      iteration_s = 0.7;
      setup = (fun ~seed -> setup ?p ~seed ());
      measure;
    }
