(* Crash recovery of the log against the snapshot-recovery oracle.

   [Log_oracle.Log_snapshot] is the earlier log, which deep-copied its
   whole state at every seal and restored that copy on a crash.  The
   differential test drives it and [Pfs.Log] in lockstep on two
   identical rigs and requires every observable — files, extent maps,
   segment table, read-back bytes — to agree after every step.  The
   allocation test pins the point of the journal: a seal costs the same
   however large the file system is. *)

module Old = Log_oracle.Log_snapshot

let seg_bytes = 16_384
let slots = 6

type op =
  | Create of int * bool  (* slot, continuous *)
  | Write of int * int * int  (* slot, offset, length *)
  | Delete of int
  | Clean
  | Sync
  | Checkpoint
  | Crash

let pp_op fmt = function
  | Create (s, c) ->
      Format.fprintf fmt "create %d%s" s (if c then " cm" else "")
  | Write (s, off, len) -> Format.fprintf fmt "write %d @%d+%d" s off len
  | Delete s -> Format.fprintf fmt "delete %d" s
  | Clean -> Format.pp_print_string fmt "clean"
  | Sync -> Format.pp_print_string fmt "sync"
  | Checkpoint -> Format.pp_print_string fmt "checkpoint"
  | Crash -> Format.pp_print_string fmt "crash"

let op_gen ~continuous =
  QCheck2.Gen.(
    let slot = int_range 0 (slots - 1) in
    let cm =
      if continuous then map (fun n -> n = 0) (int_bound 3) else return false
    in
    frequency
      [
        (2, map2 (fun s c -> Create (s, c)) slot cm);
        ( 8,
          map3
            (fun s off len -> Write (s, off, len))
            slot (int_range 0 24_000) (int_range 1 12_000) );
        (1, map (fun s -> Delete s) slot);
        (2, return Clean);
        (2, return Sync);
        (1, return Checkpoint);
        (2, return Crash);
      ])

type rig = {
  e_new : Sim.Engine.t;
  e_old : Sim.Engine.t;
  log : Pfs.Log.t;
  old : Old.t;
  fids : int option array;  (* slot -> fid, the same in both logs *)
  mutable top_fid : int;  (* highest fid ever handed out *)
  mutable tag : int;
  (* Every file's contents as of the last explicit sync, checkpoint or
     recovery, and what happened since: the seal count then, the files
     written or deleted, and whether the cleaner ran. *)
  mutable check_durable : bool;
  mutable durable : (int * bytes) list;
  mutable sealed_at_mark : int;
  mutable touched : int list;
  mutable cleaned : bool;
}

let make_rig ~check_durable =
  let side () =
    let e = Sim.Engine.create () in
    (e, Pfs.Raid.create e ~store_data:true ~segment_bytes:seg_bytes ())
  in
  let e_new, raid_new = side () and e_old, raid_old = side () in
  {
    e_new;
    e_old;
    log = Pfs.Log.create e_new ~raid:raid_new ();
    old = Old.create e_old ~raid:raid_old ();
    fids = Array.make slots None;
    top_fid = 0;
    tag = 0;
    check_durable;
    durable = [];
    sealed_at_mark = 0;
    touched = [];
    cleaned = false;
  }

let run r =
  Sim.Engine.run r.e_new;
  Sim.Engine.run r.e_old

let fail fmt = Format.kasprintf failwith fmt

(* Run one continuation-passing call on both sides and return both
   results once the engines drain. *)
let both r call_new call_old =
  let a = ref None and b = ref None in
  call_new (fun x -> a := Some x);
  call_old (fun x -> b := Some x);
  run r;
  match (!a, !b) with
  | Some a, Some b -> (a, b)
  | _ -> fail "a call never completed"

let read_both r fid =
  let len = Pfs.Log.file_size r.log fid in
  match
    both r
      (fun k -> Pfs.Log.read r.log fid ~off:0 ~len ~k)
      (fun k -> Old.read r.old fid ~off:0 ~len ~k)
  with
  | Ok (Some a), Ok (Some b) ->
      if not (Bytes.equal a b) then fail "fid %d: bytes differ" fid;
      a
  | _ -> fail "fid %d: read failed" fid

(* Every observable of the two logs must agree. *)
let compare_logs r =
  let check what a b = if a <> b then fail "%s: %d vs oracle %d" what a b in
  let log = r.log and old = r.old in
  check "total_segments" (Pfs.Log.total_segments log) (Old.total_segments old);
  check "free_segments" (Pfs.Log.free_segments log) (Old.free_segments old);
  check "live_bytes" (Pfs.Log.live_bytes log) (Old.live_bytes old);
  check "garbage_bytes_created"
    (Pfs.Log.garbage_bytes_created log)
    (Old.garbage_bytes_created old);
  for id = 0 to Pfs.Log.total_segments log - 1 do
    check
      (Printf.sprintf "segment_live %d" id)
      (Pfs.Log.segment_live log id) (Old.segment_live old id);
    if Pfs.Log.segment_sealed log id <> Old.segment_sealed old id then
      fail "segment_sealed %d differs" id
  done;
  for fid = 1 to r.top_fid + 1 do
    let exists = Pfs.Log.file_exists log fid in
    if exists <> Old.file_exists old fid then fail "file_exists %d differs" fid;
    if exists then begin
      check
        (Printf.sprintf "file_size %d" fid)
        (Pfs.Log.file_size log fid) (Old.file_size old fid);
      if Pfs.Log.file_extents log fid <> Old.file_extents old fid then
        fail "file_extents %d differ" fid;
      ignore (read_both r fid)
    end
  done

let live_fids r = List.filter_map Fun.id (Array.to_list r.fids)

let sealed r =
  Sim.Metrics.value
    (Sim.Metrics.counter (Sim.Engine.metrics r.e_new) ~sub:Sim.Subsystem.Pfs
       "log.segments_sealed")

(* The recovery point moved to now: record what must survive. *)
let mark_durable r =
  r.durable <- List.map (fun fid -> (fid, read_both r fid)) (live_fids r);
  r.sealed_at_mark <- sealed r;
  r.touched <- [];
  r.cleaned <- false

let touch r fid =
  if not (List.mem fid r.touched) then r.touched <- fid :: r.touched

let apply r op =
  match op with
  | Create (slot, continuous) ->
      if r.fids.(slot) = None then begin
        let fid =
          Pfs.Log.create_file r.log
            ~kind:(if continuous then Pfs.Log.Continuous else Pfs.Log.Normal)
            ()
        in
        let fid' =
          Old.create_file r.old
            ~kind:(if continuous then Old.Continuous else Old.Normal)
            ()
        in
        if fid <> fid' then fail "create: fid %d vs oracle %d" fid fid';
        r.fids.(slot) <- Some fid;
        r.top_fid <- max r.top_fid fid;
        touch r fid;
        run r
      end
  | Write (slot, off, len) -> (
      match r.fids.(slot) with
      | None -> ()
      | Some fid ->
          r.tag <- r.tag + 1;
          let data =
            Bytes.init len (fun i -> Char.chr (((i * 7) + r.tag) land 0xff))
          in
          touch r fid;
          let a, b =
            both r
              (fun k -> Pfs.Log.write r.log fid ~off ~data ~len k)
              (fun k -> Old.write r.old fid ~off ~data ~len k)
          in
          if a <> b then fail "write ack differs";
          if a <> Ok () then fail "write failed")
  | Delete slot -> (
      match r.fids.(slot) with
      | None -> ()
      | Some fid ->
          touch r fid;
          r.fids.(slot) <- None;
          let a, b =
            both r
              (fun k -> Pfs.Log.delete r.log fid ~k)
              (fun k -> Old.delete r.old fid ~k)
          in
          if a <> b then fail "delete result differs")
  | Clean ->
      (* At most three sealed segments holding garbage, lowest first,
         one after another as the cleaner does. *)
      r.cleaned <- true;
      let victims =
        List.filter
          (fun id ->
            Pfs.Log.segment_sealed r.log id
            && Pfs.Log.segment_live r.log id < seg_bytes)
          (List.init (Pfs.Log.total_segments r.log) Fun.id)
      in
      List.iteri
        (fun i id ->
          if i < 3 && Pfs.Log.segment_sealed r.log id then begin
            let a, b =
              both r
                (fun k -> Pfs.Log.clean_segment r.log id ~k)
                (fun k -> Old.clean_segment r.old id ~k)
            in
            if a <> b then fail "clean_segment %d result differs" id
          end)
        victims
  | Sync | Checkpoint ->
      let before = sealed r in
      let a, b =
        if op = Sync then
          both r (fun k -> Pfs.Log.sync r.log ~k) (fun k -> Old.sync r.old ~k)
        else
          both r
            (fun k -> Pfs.Log.checkpoint r.log ~k)
            (fun k -> Old.checkpoint r.old ~k)
      in
      if a <> b || a <> Ok () then fail "sync failed";
      (* A sync with nothing to seal leaves the recovery point alone. *)
      if op = Checkpoint || sealed r > before then mark_durable r
  | Crash ->
      let resealed = sealed r > r.sealed_at_mark in
      let a, b =
        both r
          (fun k ->
            Pfs.Log.crash_and_recover r.log ~k:(fun ~lost_bytes -> k lost_bytes))
          (fun k ->
            Old.crash_and_recover r.old ~k:(fun ~lost_bytes -> k lost_bytes))
      in
      if a <> b then fail "lost_bytes %d vs oracle %d" a b;
      (* With no seal since the mark, the crash restores exactly the
         marked files.  After seals, files neither written nor deleted
         survive byte-exact, unless the cleaner ran. *)
      if r.check_durable then begin
        r.check_durable <- false;
        if not resealed then
          for fid = 1 to r.top_fid do
            let marked = List.mem_assoc fid r.durable in
            if Pfs.Log.file_exists r.log fid <> marked then
              fail "fid %d: existence not rolled back" fid
          done;
        let kept fid = not (r.cleaned || List.mem fid r.touched) in
        List.iter
          (fun (fid, content) ->
            if (not resealed) || kept fid then begin
              if not (Pfs.Log.file_exists r.log fid) then
                fail "durable fid %d vanished" fid;
              if not (Bytes.equal (read_both r fid) content) then
                fail "durable fid %d changed" fid
            end)
          r.durable
      end;
      (* Slots follow whatever the recovered log holds: files created
         since the recovery point are gone, and files deleted since it
         are back (they take free slots, when there are any). *)
      let exists fid = Pfs.Log.file_exists r.log fid in
      Array.iteri
        (fun slot f ->
          match f with
          | Some fid when not (exists fid) -> r.fids.(slot) <- None
          | Some _ | None -> ())
        r.fids;
      let free_slot () =
        List.find_opt (fun slot -> r.fids.(slot) = None) (List.init slots Fun.id)
      in
      for fid = 1 to r.top_fid do
        if exists fid && not (Array.mem (Some fid) r.fids) then
          Option.iter (fun slot -> r.fids.(slot) <- Some fid) (free_slot ())
      done;
      mark_durable r

(* A seal records a recovery point for the whole mapping, wherever the
   operation that sealed had got to, so a recovered log can map a range
   the wrong way: a hole where a write had sealed part of its data, a
   dead extent the cleaner then frees, and with continuous files, an
   extent in the other open segment, which the crash recycles.  The
   scripted cases below show these; the two logs agree on them.  The
   durability checks are the guarantees that hold regardless, so they
   cover only runs of normal files and only up to the first crash. *)
let run_ops ops =
  let check_durable =
    not (List.exists (function Create (_, c) -> c | _ -> false) ops)
  in
  let r = make_rig ~check_durable in
  List.iteri
    (fun i op ->
      try
        apply r op;
        compare_logs r
      with Failure msg -> fail "step %d (%a): %s" i pp_op op msg)
    ops;
  true

let scripted name ops =
  Alcotest.test_case name `Quick (fun () -> ignore (run_ops ops))

let property name ~continuous =
  let pp_sep fmt () = Format.pp_print_string fmt "; " in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:150
       ~print:(Format.asprintf "%a" (Format.pp_print_list ~pp_sep pp_op))
       QCheck2.Gen.(list_size (int_range 1 60) (op_gen ~continuous))
       run_ops)

let differential_tests =
  [
    scripted "crash before any seal"
      [
        Create (0, false); Write (0, 0, 5_000); Create (1, true);
        Write (1, 0, 900); Crash; Create (2, false); Write (2, 100, 3_000);
        Sync;
      ];
    scripted "double crash"
      [
        Create (0, false); Write (0, 0, 20_000); Sync; Write (0, 500, 4_000);
        Crash; Crash; Write (0, 0, 40_000); Crash; Crash;
      ];
    scripted "crash after a cleaner pass that has not sealed"
      [
        Create (0, false); Create (1, false); Write (0, 0, 30_000);
        Write (1, 0, 30_000); Sync; Write (0, 2_000, 9_000); Delete 1; Sync;
        Clean; Crash; Clean; Sync;
      ];
    scripted "a delete after the last seal comes back"
      [ Create (0, false); Write (0, 0, 10_000); Checkpoint; Delete 0; Crash ];
    scripted "seals in the middle of a write"
      [
        Create (0, false); Write (0, 0, 15_000); Write (0, 10_000, 40_000);
        Crash; Write (0, 5_000, 50_000); Clean; Crash;
      ];
    (* The 64-byte pnode record straddles the end of the segment. *)
    scripted "a seal in the middle of a pnode append"
      [ Create (0, false); Write (0, 0, 16_300); Crash; Write (0, 0, 10); Sync ];
    (* The seal in the middle of the write records the file before the
       write maps its new extents: the crash after the acknowledgement
       returns an empty file, and the cleaner later maps the sealed
       part back in. *)
    scripted "a crash after a write that spans a seal"
      [
        Create (0, false); Write (0, 0, 20_000); Crash; Write (0, 0, 100); Sync;
        Clean; Crash;
      ];
    (* The continuous segment seals while the cleaner's copy of file 1
       still sits in the open normal segment: the recovery point then
       maps file 1 into a segment the crash recycles. *)
    scripted "a continuous seal after a cleaner pass"
      [
        Create (2, false); Create (1, true); Create (0, true);
        Write (0, 0, 3_474); Write (2, 0, 1); Write (1, 0, 5_362); Sync;
        Write (0, 3_474, 184); Clean; Write (0, 0, 7_364); Crash;
      ];
    property "journal recovery matches snapshot recovery" ~continuous:true;
    property "normal files keep sealed data through a first crash"
      ~continuous:false;
  ]

(* Minor words allocated by one [sync] that seals a segment, after
   growing [files] one-kilobyte files. *)
let seal_words files =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~segment_bytes:65_536 () in
  let log = Pfs.Log.create e ~raid () in
  for _ = 1 to files do
    let fid = Pfs.Log.create_file log () in
    Pfs.Log.write log fid ~off:0 ~len:1_024 (fun _ -> ())
  done;
  let fid = Pfs.Log.create_file log () in
  Pfs.Log.write log fid ~off:0 ~len:100 (fun _ -> ());
  Sim.Engine.run e;
  let before = Gc.minor_words () in
  Pfs.Log.sync log ~k:(fun _ -> ());
  let words = Gc.minor_words () -. before in
  Sim.Engine.run e;
  words

let cost_tests =
  [
    Alcotest.test_case "a seal costs the same at 64 and 4,096 files" `Quick
      (fun () ->
        let small = seal_words 64 and large = seal_words 4_096 in
        if large > 2. *. small || small > 2. *. large then
          fail "sync allocated %.0f words at 64 files, %.0f at 4096" small
            large);
  ]

let () =
  Alcotest.run "log-recovery"
    [ ("differential", differential_tests); ("seal-cost", cost_tests) ]
