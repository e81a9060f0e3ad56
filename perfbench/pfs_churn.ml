(* pfs-churn: the write, seal, clean and recover path of the file
   server, with no network at all.

   The rig is [volumes] independent file-server volumes on one engine,
   each a log over its own RAID and disks.  Set-up grows an E9-style
   file population on every volume straight through its log
   (population x 128 KB, sealed, one cleaner pass to absorb the
   population's own garbage).  The measured phase then runs one
   open-loop Baker stream per volume (5 creates/s, 70 % of files
   short-lived) through a client agent into a server with 30 s
   write-behind.  Every [clean_every] the benchmark runs a cleaner pass
   on each volume and every [sync_every] a log sync; after the traffic
   stops it crashes each server and its log, recovers both, replays the
   agent's copies and lets the write-behind drain.

   Several volumes rather than one bigger one: Baker file sizes are
   heavy-tailed, so one stream's total bytes -- and with them the seal
   count and the O(state) work per seal -- swing by a tenth between
   seeds.  Independent streams average that out while each volume
   keeps the state size of a single E9-style server. *)

(* The run's size and pacing; the tests run a smaller one. *)
type params = {
  volumes : int;
  population : int;  (* files grown per volume in set-up *)
  traffic : Sim.Time.t;  (* Baker creates files for this long *)
  clean_every : Sim.Time.t;
  sync_every : Sim.Time.t;
  crash_after : Sim.Time.t;  (* crash this long after the traffic stops *)
  drain : Sim.Time.t;  (* simulated time after the crash *)
  step : Sim.Time.t;  (* one slice *)
}

let default =
  {
    volumes = 4;
    population = 256;
    traffic = Sim.Time.sec 300;
    clean_every = Sim.Time.sec 60;
    sync_every = Sim.Time.sec 30;
    crash_after = Sim.Time.sec 35;
    drain = Sim.Time.sec 90;
    step = Sim.Time.sec 2;
  }

let file_bytes = 131_072
let seg_bytes = 262_144
let create_rate = 5.0  (* per volume *)
let min_garbage = 131_072  (* cleaner threshold: garbage bytes per segment *)
let reboot = Sim.Time.sec 5  (* server down time before recovery and replay *)

type stats = {
  mutable issued : int;
  mutable acked : int;  (* acknowledgement callbacks that ran *)
  mutable ack_fold : int;  (* simulated ack latencies, in ack order *)
  mutable ack_sum_ns : int;
  mutable seals_in_calls : int;  (* seals inside the benchmark's sync calls *)
  mutable sync_errors : int;
  mutable cleans : int;
  mutable clean_segments : int;
  mutable clean_moved : int;
  mutable clean_reclaimed : int;
  mutable clean_entries : int;
  mutable lost_bytes : int;
  mutable recoveries : int;
}

type volume = {
  log : Pfs.Log.t;
  server : Pfs.Client_agent.Server.t;
  agent : Pfs.Client_agent.Agent.t;
  gen : Workloads.Baker.t;
  st : stats;
}

type rig = { p : params; e : Sim.Engine.t; vols : volume array }

let sealed e =
  Wl.counter (Sim.Engine.metrics e) Sim.Subsystem.Pfs "log.segments_sealed"

(* The Baker input stream of one volume; its draws depend only on the
   seed and the volume index. *)
let generator e ~seed ~volume ~ops =
  Workloads.Baker.create e
    ~rng:(Wl.rng ~salt:(0x5CC1 + volume) seed)
    ~ops ~create_rate ()

let volume e p ~seed ~index =
  let raid = Pfs.Raid.create e ~segment_bytes:seg_bytes () in
  let log = Pfs.Log.create e ~raid () in
  let fids = Array.init p.population (fun _ -> Pfs.Log.create_file log ()) in
  Array.iter
    (fun fid -> Pfs.Log.write log fid ~off:0 ~len:file_bytes (fun _ -> ()))
    fids;
  Pfs.Log.sync log ~k:(fun _ -> ());
  Sim.Engine.run e;
  Pfs.Cleaner.run log (fun _ -> ());
  Sim.Engine.run e;
  Pfs.Log.sync log ~k:(fun _ -> ());
  Sim.Engine.run e;
  let server =
    Pfs.Client_agent.Server.create e ~log ~write_delay:(Sim.Time.sec 30) ()
  in
  let agent =
    Pfs.Client_agent.Agent.create e ~server
      ~seed:(Int64.of_int ((seed * 64) + index))
      ()
  in
  let st =
    {
      issued = 0;
      acked = 0;
      ack_fold = 0;
      ack_sum_ns = 0;
      seals_in_calls = 0;
      sync_errors = 0;
      cleans = 0;
      clean_segments = 0;
      clean_moved = 0;
      clean_reclaimed = 0;
      clean_entries = 0;
      lost_bytes = 0;
      recoveries = 0;
    }
  in
  let write ~fid ~off ~len =
    st.issued <- st.issued + 1;
    let t0 = Sim.Time.to_ns (Sim.Engine.now e) in
    let ack () =
      let d = Sim.Time.to_ns (Sim.Engine.now e) - t0 in
      st.acked <- st.acked + 1;
      st.ack_fold <- Outcome.fold st.ack_fold d;
      st.ack_sum_ns <- st.ack_sum_ns + d
    in
    let s = Span.enter Span.pfs_write ~req:fid in
    ignore (Pfs.Client_agent.Agent.write agent ~fid ~off ~len ~ack ());
    Span.leave s
  in
  let ops =
    {
      Workloads.Baker.op_create =
        (fun () ->
          let s = Span.enter Span.pfs_create ~req:(-1) in
          let fid = Pfs.Client_agent.Server.create_file server in
          Span.leave s;
          fid);
      op_write = write;
      op_overwrite = (fun ~fid ~len -> write ~fid ~off:0 ~len);
      op_delete =
        (fun ~fid ->
          let s = Span.enter Span.pfs_delete ~req:fid in
          Pfs.Client_agent.Agent.delete agent ~fid;
          Span.leave s);
    }
  in
  { log; server; agent; gen = generator e ~seed ~volume:index ~ops; st }

let setup ?(p = default) ~seed () =
  let e = Wl.engine () in
  { p; e; vols = Array.init p.volumes (fun index -> volume e p ~seed ~index) }

let clean v =
  let st = v.st in
  let s = Span.enter Span.pfs_clean ~req:st.cleans in
  Pfs.Cleaner.run v.log ~min_garbage (fun c ->
      st.clean_segments <- st.clean_segments + c.Pfs.Cleaner.segments_cleaned;
      st.clean_moved <- st.clean_moved + c.Pfs.Cleaner.bytes_moved;
      st.clean_reclaimed <- st.clean_reclaimed + c.Pfs.Cleaner.bytes_reclaimed;
      st.clean_entries <- st.clean_entries + c.Pfs.Cleaner.entries_processed);
  st.cleans <- st.cleans + 1;
  Span.leave s

let sync r v =
  let st = v.st in
  let s = Span.enter Span.pfs_sync ~req:(-1) in
  let before = sealed r.e in
  Pfs.Log.sync v.log ~k:(function
    | Ok () -> ()
    | Error _ -> st.sync_errors <- st.sync_errors + 1);
  st.seals_in_calls <- st.seals_in_calls + (sealed r.e - before);
  Span.leave s

let crash r v =
  let st = v.st in
  let s = Span.enter Span.pfs_recover ~req:(-1) in
  Pfs.Client_agent.Server.crash v.server;
  Pfs.Log.crash_and_recover v.log ~k:(fun ~lost_bytes ->
      st.lost_bytes <- lost_bytes;
      ignore
        (Sim.Engine.schedule r.e ~delay:reboot (fun () ->
             let s = Span.enter Span.pfs_recover ~req:(-1) in
             Pfs.Client_agent.Server.recover v.server;
             Pfs.Client_agent.Agent.replay v.agent;
             st.recoveries <- st.recoveries + 1;
             Span.leave s)));
  Span.leave s

let measure r sl =
  let p = r.p and e = r.e in
  let t0 = Sim.Engine.now e in
  let at d = Sim.Time.add t0 d in
  let ev0 = Wl.events e and sealed0 = sealed e in
  let crash_at = Sim.Time.add p.traffic p.crash_after in
  let back_at = at (Sim.Time.add crash_at reboot) in
  let horizon = Sim.Time.add crash_at p.drain in
  (* Volume [n]'s periodic passes are offset by [n / volumes] of a
     period, and cleaner passes by a further eighth of a sync
     period, so no slice holds more than one volume's sync or clean:
     the slice tail then measures one pass, not a pile-up. *)
  let every ?(shift = Sim.Time.zero) n period ~upto f =
    let off = Sim.Time.add shift (Sim.Time.div (Sim.Time.mul period n) p.volumes) in
    let rec go k =
      let d = Sim.Time.add (Sim.Time.mul period k) off in
      if Sim.Time.(d < upto) then begin
        ignore (Sim.Engine.schedule_at e ~at:(at d) f);
        go (k + 1)
      end
    in
    go 1
  in
  let gen f v =
    let g = Span.enter Span.wl_gen ~req:(-1) in
    f v.gen;
    Span.leave g
  in
  Array.iteri
    (fun n v ->
      gen Workloads.Baker.start v;
      ignore
        (Sim.Engine.schedule_at e ~at:(at p.traffic) (fun () ->
             gen Workloads.Baker.stop v));
      every n p.sync_every ~upto:crash_at (fun () -> sync r v);
      ignore (Sim.Engine.schedule_at e ~at:(at crash_at) (fun () -> crash r v));
      (* No cleaning while the server is down. *)
      every ~shift:(Sim.Time.div p.sync_every 8) n p.clean_every ~upto:horizon
        (fun () ->
          let now = Sim.Engine.now e in
          if Sim.Time.(now < at crash_at || now > back_at) then clean v))
    r.vols;
  let steps = Sim.Time.to_ns horizon / Sim.Time.to_ns p.step in
  for k = 1 to steps do
    Wl.slice sl (fun () -> Wl.run_until e (at (Sim.Time.mul p.step k)))
  done;
  let o = Outcome.create () in
  let i = Outcome.int o in
  let module B = Workloads.Baker in
  let module S = Pfs.Client_agent.Server in
  let module A = Pfs.Client_agent.Agent in
  i "now_ns" (Sim.Time.to_ns (Sim.Engine.now e));
  i "events" (Wl.events e - ev0);
  i "sealed" (sealed e - sealed0);
  let sum f = Array.fold_left (fun a v -> a + f v) 0 r.vols in
  let audits = Array.map (fun v -> Pfs.Client_agent.audit v.server) r.vols in
  Array.iteri
    (fun n v ->
      let st = v.st and a = audits.(n) in
      let i k x = i (Printf.sprintf "v%d.%s" n k) x in
      i "created" (B.files_created v.gen);
      i "deletes" (B.deletes v.gen);
      i "overwrites" (B.overwrites v.gen);
      i "bytes" (B.bytes_written v.gen);
      i "issued" st.issued;
      i "acked" st.acked;
      i "agent_acked" (A.acked_writes v.agent);
      i "ack_fold" st.ack_fold;
      i "ack_sum_ns" st.ack_sum_ns;
      i "received" (S.writes_received v.server);
      i "disk_writes" (S.disk_writes v.server);
      i "cancelled" (S.writes_cancelled v.server);
      i "pending" (S.pending v.server);
      i "retries" (A.retries v.agent);
      i "copies" (A.copies_held v.agent);
      i "audit_acked" a.Pfs.Client_agent.acknowledged;
      i "audit_durable" a.durable;
      i "audit_recoverable" a.recoverable;
      i "audit_lost" a.lost;
      i "seals_in_calls" st.seals_in_calls;
      i "live" (Pfs.Log.live_bytes v.log);
      i "garbage" (Pfs.Log.garbage_bytes_created v.log);
      i "meta" (Pfs.Log.metadata_writes v.log);
      i "segments" (Pfs.Log.total_segments v.log);
      i "free" (Pfs.Log.free_segments v.log);
      i "cleans" st.cleans;
      i "clean_segments" st.clean_segments;
      i "clean_moved" st.clean_moved;
      i "clean_reclaimed" st.clean_reclaimed;
      i "clean_entries" st.clean_entries;
      i "lost_bytes" st.lost_bytes;
      i "recoveries" st.recoveries)
    r.vols;
  let issued = sum (fun v -> v.st.issued) in
  let lost = Array.fold_left (fun a au -> a + au.Pfs.Client_agent.lost) 0 audits in
  let reclaimed = sum (fun v -> v.st.clean_reclaimed) in
  {
    Wl.attempted = issued;
    (* A write fails when its caller's acknowledgement callback never
       ran or the audit finds it acknowledged but gone; a volume that
       never recovered fails all its writes. *)
    failed =
      sum (fun v ->
          v.st.issued - v.st.acked + v.st.sync_errors
          + if v.st.recoveries = 1 then 0 else v.st.issued)
      + lost;
    outcome = o;
    counts =
      [
        ("sim.events", float_of_int (Wl.events e - ev0));
        ("pfs.sealed", float_of_int (sealed e - sealed0));
        ("pfs.seals_in_calls", float_of_int (sum (fun v -> v.st.seals_in_calls)));
        ("pfs.clean_entries", float_of_int (sum (fun v -> v.st.clean_entries)));
        ( "pfs.clean_yield",
          Wl.ratio reclaimed (reclaimed + sum (fun v -> v.st.clean_moved)) );
        ("pfs.lost", float_of_int lost);
      ];
    (* Of the failed writes, those the agent counts acknowledged
       although the caller's callback never ran: a write first offered
       while its server is down is acknowledged through
       [Agent.replay], which passes no [ack]. *)
    notes =
      [
        ( "ack_callbacks_dropped",
          sum (fun v -> A.acked_writes v.agent - v.st.acked) );
      ];
  }

let workload ?p () =
  Wl.W
    {
      name = "pfs-churn";
      iteration_s = 1.0;
      setup = (fun ~seed -> setup ?p ~seed ());
      measure;
    }
