(* Tests for the Pegasus file server: disks, RAID, log, cleaners,
   cache, client agent, continuous-media stack. *)

let ms = Sim.Time.ms
let time = Alcotest.testable Sim.Time.pp ( = )

let seg_64k = 65536

let rig ?(store_data = true) ?(segment_bytes = seg_64k) () =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~store_data ~segment_bytes () in
  let log = Pfs.Log.create e ~raid () in
  (e, raid, log)

(* Write a deterministic pattern and return it. *)
let pattern n tag = Bytes.init n (fun i -> Char.chr ((i + tag) land 0xff))

let write_ok e log fid ~off data =
  let done_ = ref false in
  Pfs.Log.write log fid ~off ~data ~len:(Bytes.length data) (fun r ->
      (match r with Ok () -> () | Error _ -> Alcotest.fail "write failed");
      done_ := true);
  Sim.Engine.run e;
  Alcotest.(check bool) "write completed" true !done_

let read_back e log fid ~off ~len =
  let result = ref None in
  Pfs.Log.read log fid ~off ~len ~k:(fun r -> result := Some r);
  Sim.Engine.run e;
  match !result with
  | Some (Ok (Some b)) -> b
  | Some (Ok None) -> Alcotest.fail "no data stored"
  | Some (Error _) -> Alcotest.fail "read failed"
  | None -> Alcotest.fail "read never completed"

let disk_tests =
  [
    Alcotest.test_case "sequential I/O avoids seeks" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let d = Pfs.Disk.create e ~name:"d" () in
        let n = 16 in
        for i = 0 to n - 1 do
          Pfs.Disk.write d ~off:(i * 65536) ~len:65536 ~k:(fun _ -> ())
        done;
        Sim.Engine.run e;
        (* Only the first op positions the head. *)
        Alcotest.(check bool) "one seek's worth" true
          Sim.Time.(Pfs.Disk.seek_time d < Sim.Time.ms 20);
        Alcotest.(check int) "ops" n (Pfs.Disk.writes d));
    Alcotest.test_case "random I/O pays positioning" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let d = Pfs.Disk.create e ~name:"d" () in
        for i = 0 to 15 do
          let off = (i * 7919 * 65536) mod 1_000_000_000 in
          Pfs.Disk.read d ~off ~len:4096 ~k:(fun _ -> ())
        done;
        Sim.Engine.run e;
        Alcotest.(check bool) "seeks dominate" true
          Sim.Time.(Pfs.Disk.seek_time d > Sim.Time.ms 50));
    Alcotest.test_case "megabyte extents keep seek overhead under 10%" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Pfs.Disk.create e ~name:"d" () in
        (* Alternate between two distant regions, 1MB at a time: every
           op seeks, as when the log head and a read stream compete. *)
        for i = 0 to 19 do
          let off = if i mod 2 = 0 then i * 1_048_576 else 1_500_000_000 + (i * 1_048_576) in
          Pfs.Disk.write d ~off ~len:1_048_576 ~k:(fun _ -> ())
        done;
        Sim.Engine.run e;
        let overhead =
          Sim.Time.to_sec_f (Pfs.Disk.seek_time d)
          /. Sim.Time.to_sec_f (Pfs.Disk.busy_time d)
        in
        Alcotest.(check bool)
          (Printf.sprintf "overhead %.1f%%" (overhead *. 100.))
          true (overhead < 0.10);
        (* ...which sustains at least the paper's 5 MB/s per disk. *)
        let rate =
          Float.of_int (Pfs.Disk.bytes_written d)
          /. Sim.Time.to_sec_f (Pfs.Disk.busy_time d)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%.2f MB/s" (rate /. 1e6))
          true
          (rate >= 5.0e6));
    Alcotest.test_case "failed disks answer with errors" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let d = Pfs.Disk.create e ~name:"d" () in
        Pfs.Disk.fail d;
        let got = ref None in
        Pfs.Disk.read d ~off:0 ~len:100 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        Alcotest.(check bool) "error" true (!got = Some (Error `Failed));
        Pfs.Disk.repair d;
        Pfs.Disk.read d ~off:0 ~len:100 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        Alcotest.(check bool) "ok after repair" true (!got = Some (Ok ())));
  ]

let raid_tests =
  [
    Alcotest.test_case "write/read round-trips through striping" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 7 in
        Pfs.Raid.write_segment raid ~seg:3 ~data (fun r ->
            Alcotest.(check bool) "write ok" true (r = Ok ()));
        Sim.Engine.run e;
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:3 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "data" data b
        | _ -> Alcotest.fail "read failed");
    Alcotest.test_case "a single failed data disk is reconstructed from parity"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 11 in
        Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.fail_disk raid 2;
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        (match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "reconstructed" data b
        | _ -> Alcotest.fail "degraded read failed");
        Alcotest.(check (list int)) "failed list" [ 2 ] (Pfs.Raid.failed_disks raid));
    Alcotest.test_case "a failed parity disk does not block reads" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 13 in
        Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.fail_disk raid (Pfs.Raid.data_disks raid);
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "data intact" data b
        | _ -> Alcotest.fail "read failed");
    Alcotest.test_case "two failures lose data" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        Pfs.Raid.write_segment raid ~seg:0 ~data:(pattern 4096 1) (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.fail_disk raid 0;
        Pfs.Raid.fail_disk raid 1;
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        Alcotest.(check bool) "lost" true (!got = Some (Error `Lost)));
    Alcotest.test_case "striping multiplies single-disk bandwidth by ~4" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let seg = 1_048_576 in
        let raid = Pfs.Raid.create e ~segment_bytes:seg () in
        let t0 = Sim.Engine.now e in
        let done_at = ref Sim.Time.zero in
        let rec write n =
          if n < 20 then
            Pfs.Raid.write_segment raid ~seg:n (fun _ ->
                done_at := Sim.Engine.now e;
                write (n + 1))
        in
        write 0;
        Sim.Engine.run e;
        let rate =
          Float.of_int (20 * seg) /. Sim.Time.to_sec_f (Sim.Time.sub !done_at t0)
        in
        (* The paper: four striped disks make 20 MB/s possible. *)
        Alcotest.(check bool)
          (Printf.sprintf "%.1f MB/s" (rate /. 1e6))
          true
          (rate > 18.0e6));
    Alcotest.test_case "partial reads touch only the stripes they cover" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~segment_bytes:1_048_576 () in
        Pfs.Raid.write_segment raid ~seg:0 (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.reset_stats raid;
        (* 10 KB within the first 256 KB chunk: only disk 0 reads. *)
        Pfs.Raid.read_extent raid ~seg:0 ~off:1000 ~len:10_000 ~k:(fun _ -> ());
        Sim.Engine.run e;
        let reads_per_disk =
          List.map (fun d -> Pfs.Disk.reads d) (Pfs.Raid.disks raid)
        in
        Alcotest.(check (list int)) "one disk" [ 1; 0; 0; 0; 0 ] reads_per_disk);
    Alcotest.test_case "multi-chunk extents read later chunks from their start"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        (* chunk = 1024 *)
        let raid = Pfs.Raid.create e ~segment_bytes:4096 () in
        Pfs.Raid.write_segment raid ~seg:1 (fun _ -> ());
        Sim.Engine.run e;
        (* Extent [1000, 2048) of segment 1: disk 0 serves the last 24
           bytes of its chunk, disk 1 the first 1024 of its own.  The
           head position after the read exposes the per-disk offset
           actually used — disk 1 must start at its chunk's beginning,
           not repeat disk 0's intra-chunk offset. *)
        Pfs.Raid.read_extent raid ~seg:1 ~off:1000 ~len:1048 ~k:(fun _ -> ());
        Sim.Engine.run e;
        let disks = Array.of_list (Pfs.Raid.disks raid) in
        Alcotest.(check int) "disk0 head" (1024 + 1000 + 24)
          (Pfs.Disk.head disks.(0));
        Alcotest.(check int) "disk1 head" (1024 + 0 + 1024)
          (Pfs.Disk.head disks.(1)));
    Alcotest.test_case "a disk failing mid-read falls back to parity" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 17 in
        Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
        Sim.Engine.run e;
        (* The disk dies a microsecond after the chunk reads are
           issued: its in-flight read completes with an error after the
           targets were chosen, which must trigger a retry over the
           survivors plus parity, not a lost segment. *)
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Pfs.Raid.fail_disk_at raid 1
          ~at:(Sim.Time.add (Sim.Engine.now e) (Sim.Time.us 1));
        Sim.Engine.run e;
        (match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "reconstructed" data b
        | _ -> Alcotest.fail "mid-read failure was not survived");
        Alcotest.(check bool) "served degraded" true
          (Pfs.Raid.degraded_reads raid > 0));
    Alcotest.test_case "every single-disk failure in turn is survived" `Quick
      (fun () ->
        for victim = 0 to 4 do
          let e = Sim.Engine.create () in
          let raid =
            Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 ()
          in
          let data = pattern 4096 (19 + victim) in
          Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
          Sim.Engine.run e;
          Pfs.Raid.fail_disk raid victim;
          let got = ref None in
          Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
          Sim.Engine.run e;
          match !got with
          | Some (Ok (Some b)) ->
              Alcotest.(check bytes)
                (Printf.sprintf "disk %d down, data intact" victim)
                data b
          | _ -> Alcotest.failf "read failed with disk %d down" victim
        done);
    Alcotest.test_case "a transient failure window heals" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 23 in
        Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.fail_disk_for raid 0
          ~at:(Sim.Engine.now e)
          ~duration:(Sim.Time.ms 1);
        let got = ref None in
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.ms 5) (fun () ->
               Alcotest.(check (list int)) "window over" []
                 (Pfs.Raid.failed_disks raid);
               Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r)));
        Sim.Engine.run e;
        match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "data intact" data b
        | _ -> Alcotest.fail "read after the window failed");
  ]

let log_tests =
  [
    Alcotest.test_case "write then read returns the same bytes" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        let data = pattern 10_000 3 in
        write_ok e log fid ~off:0 data;
        Alcotest.(check bytes) "round trip" data (read_back e log fid ~off:0 ~len:10_000);
        Alcotest.(check int) "size" 10_000 (Pfs.Log.file_size log fid));
    Alcotest.test_case "files spanning many segments read back intact" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        let data = pattern 300_000 5 in
        (* 300KB across 64KB segments *)
        write_ok e log fid ~off:0 data;
        Alcotest.(check bytes) "all bytes" data
          (read_back e log fid ~off:0 ~len:300_000);
        Alcotest.(check bool) "several segments" true
          (Pfs.Log.total_segments log >= 5));
    Alcotest.test_case "partial overwrite keeps both old and new ranges right"
      `Quick (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (Bytes.make 9000 'a');
        write_ok e log fid ~off:3000 (Bytes.make 3000 'b');
        let b = read_back e log fid ~off:0 ~len:9000 in
        Alcotest.(check char) "head" 'a' (Bytes.get b 0);
        Alcotest.(check char) "edge before" 'a' (Bytes.get b 2999);
        Alcotest.(check char) "overwritten" 'b' (Bytes.get b 3000);
        Alcotest.(check char) "edge inside" 'b' (Bytes.get b 5999);
        Alcotest.(check char) "tail" 'a' (Bytes.get b 6000));
    Alcotest.test_case "overwrites record garbage" `Quick (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (pattern 5000 1);
        let before = Pfs.Garbage.count (Pfs.Log.garbage log) in
        write_ok e log fid ~off:0 (pattern 5000 2);
        Alcotest.(check bool) "entries appended" true (Pfs.Garbage.count (Pfs.Log.garbage log) > before);
        Alcotest.(check bool) "at least the data range" true
          (Pfs.Garbage.total_bytes (Pfs.Log.garbage log) >= 5000));
    Alcotest.test_case "delete turns the whole file into garbage" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (pattern 5000 1);
        let live0 = Pfs.Log.live_bytes log in
        Pfs.Log.delete log fid ~k:(fun r ->
            Alcotest.(check bool) "ok" true (r = Ok ()));
        Sim.Engine.run e;
        Alcotest.(check bool) "gone" false (Pfs.Log.file_exists log fid);
        Alcotest.(check bool) "live dropped" true (Pfs.Log.live_bytes log < live0));
    Alcotest.test_case "holes read as zeros" `Quick (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:8000 (Bytes.make 100 'x');
        let b = read_back e log fid ~off:0 ~len:8100 in
        Alcotest.(check char) "hole" '\000' (Bytes.get b 0);
        Alcotest.(check char) "data" 'x' (Bytes.get b 8000));
    Alcotest.test_case "sync seals open segments (tails become garbage)" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (pattern 1000 1);
        let g0 = Pfs.Garbage.total_bytes (Pfs.Log.garbage log) in
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Alcotest.(check bool) "tail recorded" true
          (Pfs.Garbage.total_bytes (Pfs.Log.garbage log) > g0);
        (* Data still readable after sealing. *)
        Alcotest.(check bytes) "after sync" (pattern 1000 1)
          (read_back e log fid ~off:0 ~len:1000));
    Alcotest.test_case "metadata updates append to the normal log" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        let m0 = Pfs.Log.metadata_writes log in
        write_ok e log fid ~off:0 (pattern 100 1);
        write_ok e log fid ~off:100 (pattern 100 2);
        Alcotest.(check int) "one pnode write per update" (m0 + 2)
          (Pfs.Log.metadata_writes log));
    Alcotest.test_case "cleaning preserves every live byte" `Quick (fun () ->
        let e, _, log = rig () in
        let keep = Pfs.Log.create_file log () in
        let doomed = Pfs.Log.create_file log () in
        let kept_data = pattern 40_000 9 in
        write_ok e log keep ~off:0 kept_data;
        write_ok e log doomed ~off:0 (pattern 40_000 4);
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.delete log doomed ~k:(fun _ -> ());
        Sim.Engine.run e;
        (* Clean every sealed segment that has garbage. *)
        let cleaned = ref (-1) in
        Pfs.Cleaner.run log (fun stats ->
            cleaned := stats.Pfs.Cleaner.segments_cleaned);
        Sim.Engine.run e;
        Alcotest.(check bool) "cleaned some" true (!cleaned > 0);
        Alcotest.(check bytes) "live data intact" kept_data
          (read_back e log keep ~off:0 ~len:40_000);
        Alcotest.(check bool) "segments freed" true (Pfs.Log.free_segments log > 0));
    Alcotest.test_case "freed segments are reused" `Quick (fun () ->
        let e, _, log = rig () in
        let doomed = Pfs.Log.create_file log () in
        write_ok e log doomed ~off:0 (pattern 100_000 4);
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.delete log doomed ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Cleaner.run log (fun _ -> ());
        Sim.Engine.run e;
        let segs_before = Pfs.Log.total_segments log in
        let f = Pfs.Log.create_file log () in
        write_ok e log f ~off:0 (pattern 100_000 6);
        (* Reuse means the table barely grows. *)
        Alcotest.(check bool) "reused free segments" true
          (Pfs.Log.total_segments log <= segs_before + 1));
  ]

let garbage_tests =
  [
    Alcotest.test_case "marker freezes the cleanable prefix" `Quick (fun () ->
        let g = Pfs.Garbage.create () in
        Pfs.Garbage.append g ~seg:1 ~off:0 ~len:10;
        Pfs.Garbage.append g ~seg:2 ~off:0 ~len:20;
        Pfs.Garbage.set_marker g;
        Pfs.Garbage.append g ~seg:3 ~off:0 ~len:30;
        let before = Pfs.Garbage.before_marker g in
        Alcotest.(check int) "two entries" 2 (List.length before);
        Pfs.Garbage.truncate_to_marker g;
        Alcotest.(check int) "one survives" 1 (Pfs.Garbage.count g);
        Alcotest.(check int) "its bytes" 30 (Pfs.Garbage.total_bytes g));
    Alcotest.test_case "file size reflects entry count" `Quick (fun () ->
        let g = Pfs.Garbage.create () in
        for i = 1 to 100 do
          Pfs.Garbage.append g ~seg:i ~off:0 ~len:1
        done;
        Alcotest.(check int) "16 bytes per entry" 1600 (Pfs.Garbage.file_bytes g));
  ]

(* Build a steady-state log: populate [files] files of [file_bytes],
   clean away the population garbage, then delete a fixed number of
   files — so the remaining garbage reflects churn, not file-system
   size. *)
let aged_log e ~segment_bytes ~files ~file_bytes ~delete_count =
  let raid = Pfs.Raid.create e ~segment_bytes () in
  let log = Pfs.Log.create e ~raid () in
  let fids = Array.init files (fun _ -> Pfs.Log.create_file log ()) in
  Array.iter
    (fun fid -> Pfs.Log.write log fid ~off:0 ~len:file_bytes (fun _ -> ()))
    fids;
  Pfs.Log.sync log ~k:(fun _ -> ());
  Sim.Engine.run e;
  (* Absorb the garbage created while populating. *)
  Pfs.Cleaner.run log (fun _ -> ());
  Sim.Engine.run e;
  Pfs.Log.sync log ~k:(fun _ -> ());
  Sim.Engine.run e;
  for i = 0 to delete_count - 1 do
    Pfs.Log.delete log fids.(i * (files / delete_count)) ~k:(fun _ -> ())
  done;
  Sim.Engine.run e;
  log

let cleaner_tests =
  [
    Alcotest.test_case "both cleaners reclaim the same garbage" `Quick
      (fun () ->
        let run which =
          let e = Sim.Engine.create () in
          let log =
            aged_log e ~segment_bytes:seg_64k ~files:40 ~file_bytes:32_000
              ~delete_count:10
          in
          let out = ref None in
          (match which with
          | `Pegasus -> Pfs.Cleaner.run log (fun s -> out := Some s)
          | `Sprite -> Pfs.Cleaner_sprite.run log (fun s -> out := Some s));
          Sim.Engine.run e;
          match !out with Some s -> s | None -> Alcotest.fail "no stats"
        in
        let p = run `Pegasus and s = run `Sprite in
        (* Ten files of 32 KB died; both cleaners must recover at least
           90 % of those bytes (they differ slightly on pnode slivers). *)
        let deleted = 10 * 32_000 in
        Alcotest.(check bool)
          (Printf.sprintf "pegasus reclaims %d" p.Pfs.Cleaner.bytes_reclaimed)
          true
          (p.Pfs.Cleaner.bytes_reclaimed >= deleted * 9 / 10);
        Alcotest.(check bool)
          (Printf.sprintf "sprite reclaims %d" s.Pfs.Cleaner.bytes_reclaimed)
          true
          (s.Pfs.Cleaner.bytes_reclaimed >= deleted * 9 / 10));
    Alcotest.test_case
      "pegasus scan cost tracks garbage, sprite scan cost tracks size" `Quick
      (fun () ->
        (* Same garbage, 8x file-system size. *)
        let run which ~files =
          let e = Sim.Engine.create () in
          let log =
            aged_log e ~segment_bytes:seg_64k ~files ~file_bytes:32_000
              ~delete_count:8
          in
          let out = ref None in
          (match which with
          | `Pegasus -> Pfs.Cleaner.run log (fun s -> out := Some s)
          | `Sprite -> Pfs.Cleaner_sprite.run log (fun s -> out := Some s));
          Sim.Engine.run e;
          match !out with Some s -> s | None -> Alcotest.fail "no stats"
        in
        let p_small = run `Pegasus ~files:32 in
        let p_big = run `Pegasus ~files:256 in
        let s_small = run `Sprite ~files:32 in
        let s_big = run `Sprite ~files:256 in
        (* Pegasus victim selection examined no table entries at all. *)
        Alcotest.(check int) "pegasus scans nothing (small)" 0
          p_small.Pfs.Cleaner.table_entries_scanned;
        Alcotest.(check int) "pegasus scans nothing (big)" 0
          p_big.Pfs.Cleaner.table_entries_scanned;
        Alcotest.(check bool) "sprite scan grows ~8x" true
          (s_big.Pfs.Cleaner.table_entries_scanned
          > 6 * s_small.Pfs.Cleaner.table_entries_scanned);
        (* Pegasus's scan cost is driven by entries, which stay similar. *)
        let ratio =
          Sim.Time.to_sec_f p_big.Pfs.Cleaner.scan_cost
          /. Float.max 1e-9 (Sim.Time.to_sec_f p_small.Pfs.Cleaner.scan_cost)
        in
        Alcotest.(check bool)
          (Printf.sprintf "pegasus scan ratio %.2f stays small" ratio)
          true (ratio < 3.0));
    Alcotest.test_case "writes during cleaning are untouched (marker)" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let log =
          aged_log e ~segment_bytes:seg_64k ~files:16 ~file_bytes:32_000
            ~delete_count:4
        in
        let garbage = Pfs.Log.garbage log in
        (* Start cleaning, then create new garbage mid-pass. *)
        let finished = ref false in
        Pfs.Cleaner.run log (fun _ -> finished := true);
        ignore
          (Sim.Engine.schedule e ~delay:(ms 1) (fun () ->
               let f = Pfs.Log.create_file log () in
               Pfs.Log.write log f ~off:0 ~len:10_000 (fun _ -> ());
               Pfs.Log.write log f ~off:0 ~len:10_000 (fun _ -> ())));
        Sim.Engine.run e;
        Alcotest.(check bool) "pass completed" true !finished;
        (* The overwrite's garbage survived the truncation. *)
        Alcotest.(check bool) "new garbage kept" true
          (Pfs.Garbage.count garbage > 0));
  ]

let cache_tests =
  [
    Alcotest.test_case "hits refresh recency" `Quick (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:2 () in
        Alcotest.(check bool) "miss a" true (Pfs.Cache.access c ~fid:1 ~block:0 = `Miss);
        Alcotest.(check bool) "miss b" true (Pfs.Cache.access c ~fid:1 ~block:1 = `Miss);
        Alcotest.(check bool) "hit a" true (Pfs.Cache.access c ~fid:1 ~block:0 = `Hit);
        (* c evicts b (LRU), not a. *)
        ignore (Pfs.Cache.access c ~fid:1 ~block:2);
        Alcotest.(check bool) "a kept" true (Pfs.Cache.probe c ~fid:1 ~block:0);
        Alcotest.(check bool) "b evicted" false (Pfs.Cache.probe c ~fid:1 ~block:1));
    Alcotest.test_case "sequential streams larger than the cache never hit"
      `Quick (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:100 () in
        (* Two passes over a 500-block video: pure LRU death. *)
        for _ = 1 to 2 do
          for b = 0 to 499 do
            ignore (Pfs.Cache.access c ~fid:9 ~block:b)
          done
        done;
        Alcotest.(check int) "zero hits" 0 (Pfs.Cache.hits c);
        Alcotest.(check int) "all misses" 1000 (Pfs.Cache.misses c));
    Alcotest.test_case "reuse within the working set hits" `Quick (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:100 () in
        for _ = 1 to 10 do
          for b = 0 to 49 do
            ignore (Pfs.Cache.access c ~fid:1 ~block:b)
          done
        done;
        Alcotest.(check int) "misses only once" 50 (Pfs.Cache.misses c);
        Alcotest.(check int) "the rest hit" 450 (Pfs.Cache.hits c));
    Alcotest.test_case "invalidate_file drops only that file" `Quick (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:10 () in
        ignore (Pfs.Cache.access c ~fid:1 ~block:0);
        ignore (Pfs.Cache.access c ~fid:2 ~block:0);
        Pfs.Cache.invalidate_file c ~fid:1;
        Alcotest.(check bool) "fid1 gone" false (Pfs.Cache.probe c ~fid:1 ~block:0);
        Alcotest.(check bool) "fid2 kept" true (Pfs.Cache.probe c ~fid:2 ~block:0);
        Alcotest.(check int) "size" 1 (Pfs.Cache.size c));
    Alcotest.test_case "per-fid index survives eviction and reinsertion" `Quick
      (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:4 () in
        (* Fill with fid 1, push half out with fid 2: evicted blocks
           must leave the per-fid index too, or a later invalidation
           would corrupt the LRU list. *)
        for b = 0 to 3 do ignore (Pfs.Cache.access c ~fid:1 ~block:b) done;
        for b = 0 to 1 do ignore (Pfs.Cache.access c ~fid:2 ~block:b) done;
        Alcotest.(check int) "full" 4 (Pfs.Cache.size c);
        Alcotest.(check int) "two evictions" 2 (Pfs.Cache.evictions c);
        Pfs.Cache.invalidate_file c ~fid:1;
        Alcotest.(check int) "only fid2 left" 2 (Pfs.Cache.size c);
        Alcotest.(check bool) "fid2 intact" true (Pfs.Cache.probe c ~fid:2 ~block:1);
        (* Invalidating an absent file is a no-op... *)
        Pfs.Cache.invalidate_file c ~fid:1;
        Alcotest.(check int) "idempotent" 2 (Pfs.Cache.size c);
        (* ...and the file can come back cleanly afterwards. *)
        Alcotest.(check bool) "reinsert misses" true
          (Pfs.Cache.access c ~fid:1 ~block:0 = `Miss);
        Alcotest.(check bool) "reinserted" true (Pfs.Cache.probe c ~fid:1 ~block:0);
        Pfs.Cache.invalidate_file c ~fid:2;
        Pfs.Cache.invalidate_file c ~fid:1;
        Alcotest.(check int) "empty again" 0 (Pfs.Cache.size c));
  ]

let agent_rig ?write_delay ?ups () =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~segment_bytes:seg_64k () in
  let log = Pfs.Log.create e ~raid () in
  let server = Pfs.Client_agent.Server.create e ~log ?write_delay ?ups () in
  let agent = Pfs.Client_agent.Agent.create e ~server () in
  (e, server, agent)

let agent_tests =
  [
    Alcotest.test_case "writes are acknowledged and eventually durable" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 5) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        let acked = ref false in
        ignore
          (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096
             ~ack:(fun () -> acked := true)
             ());
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.(check bool) "acked fast" true !acked;
        Alcotest.(check int) "not yet on disk" 0
          (Pfs.Client_agent.Server.disk_writes server);
        Sim.Engine.run e ~until:(Sim.Time.sec 10);
        Alcotest.(check int) "flushed" 1
          (Pfs.Client_agent.Server.disk_writes server);
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable;
        Sim.Engine.run e;
        Alcotest.(check int) "copy released" 0
          (Pfs.Client_agent.Agent.copies_held agent));
    Alcotest.test_case "short-lived data never costs a disk write" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 30) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        (* Deleted after 10 s — inside the write-behind window. *)
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.sec 10) (fun () ->
               Pfs.Client_agent.Agent.delete agent ~fid));
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        Alcotest.(check int) "no disk writes" 0
          (Pfs.Client_agent.Server.disk_writes server);
        Alcotest.(check int) "cancelled" 1
          (Pfs.Client_agent.Server.writes_cancelled server));
    Alcotest.test_case "overwrites inside the window save disk writes" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 30) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        for i = 0 to 4 do
          ignore
            (Sim.Engine.schedule e
               ~delay:(Sim.Time.sec (i * 2))
               (fun () ->
                 ignore
                   (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ())))
        done;
        Sim.Engine.run e ~until:(Sim.Time.sec 120);
        Alcotest.(check int) "only the last reaches disk" 1
          (Pfs.Client_agent.Server.disk_writes server);
        Alcotest.(check int) "four cancelled" 4
          (Pfs.Client_agent.Server.writes_cancelled server));
    Alcotest.test_case "server crash: the agent's copy replays, nothing lost"
      `Quick (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 30) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 5);
        Pfs.Client_agent.Server.crash server;
        let mid = Pfs.Client_agent.audit server in
        Alcotest.(check int) "recoverable, not lost" 0 mid.Pfs.Client_agent.lost;
        Alcotest.(check int) "one recoverable" 1
          mid.Pfs.Client_agent.recoverable;
        Pfs.Client_agent.Server.recover server;
        Pfs.Client_agent.Agent.replay agent;
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        let fin = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable after replay" 1 fin.Pfs.Client_agent.durable;
        Alcotest.(check int) "lost" 0 fin.Pfs.Client_agent.lost);
    Alcotest.test_case
      "writes issued while the server is down retry until it returns" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 1) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        Pfs.Client_agent.Server.crash server;
        let acked = ref false in
        ignore
          (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096
             ~ack:(fun () -> acked := true)
             ());
        Sim.Engine.run e ~until:(Sim.Time.sec 2);
        Alcotest.(check bool) "unacked while down" false !acked;
        Alcotest.(check bool) "agent kept retrying" true
          (Pfs.Client_agent.Agent.retries agent > 0);
        Pfs.Client_agent.Server.recover server;
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        Alcotest.(check bool) "acked after recovery" true !acked;
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable;
        Alcotest.(check int) "lost" 0 a.Pfs.Client_agent.lost);
    Alcotest.test_case "client crash: the server completes the write" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 10) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 2);
        Pfs.Client_agent.Agent.crash agent;
        Sim.Engine.run e ~until:(Sim.Time.sec 30);
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable;
        Alcotest.(check int) "lost" 0 a.Pfs.Client_agent.lost);
    Alcotest.test_case "power failure without UPS loses buffered data" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 30) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 5);
        (* Both machines die at once. *)
        Pfs.Client_agent.Server.crash server;
        Pfs.Client_agent.Agent.crash agent;
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "lost" 1 a.Pfs.Client_agent.lost);
    Alcotest.test_case "power failure with UPS flushes and loses nothing"
      `Quick (fun () ->
        let e, server, agent =
          agent_rig ~write_delay:(Sim.Time.sec 30) ~ups:true ()
        in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 5);
        Pfs.Client_agent.Server.crash server;
        Pfs.Client_agent.Agent.crash agent;
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "lost" 0 a.Pfs.Client_agent.lost;
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable);
  ]

let stream_rig () =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~segment_bytes:(1 lsl 20) () in
  let log = Pfs.Log.create e ~raid () in
  let streams = Pfs.Stream.create e ~log () in
  (e, log, streams)

let stream_tests =
  [
    Alcotest.test_case "admission control enforces the bandwidth budget" `Quick
      (fun () ->
        let _, _, streams = stream_rig () in
        let budget = Pfs.Stream.budget_bps streams in
        (match Pfs.Stream.start_recording streams ~rate_bps:(budget / 2) with
        | Ok _ -> ()
        | Error `Admission_denied -> Alcotest.fail "should admit half");
        (match Pfs.Stream.start_recording streams ~rate_bps:(budget / 2) with
        | Ok _ -> ()
        | Error `Admission_denied -> Alcotest.fail "should admit second half");
        match Pfs.Stream.start_recording streams ~rate_bps:1_000_000 with
        | Error `Admission_denied -> ()
        | Ok _ -> Alcotest.fail "over budget must be denied");
    Alcotest.test_case "finishing a recording releases its bandwidth" `Quick
      (fun () ->
        let _, _, streams = stream_rig () in
        match Pfs.Stream.start_recording streams ~rate_bps:8_000_000 with
        | Error `Admission_denied -> Alcotest.fail "denied"
        | Ok r ->
            Alcotest.(check int) "admitted" 8_000_000
              (Pfs.Stream.admitted_bps streams);
            Pfs.Stream.finish_recording streams r;
            Alcotest.(check int) "released" 0 (Pfs.Stream.admitted_bps streams));
    Alcotest.test_case "record, index, play back with no underruns" `Quick
      (fun () ->
        let e, _, streams = stream_rig () in
        let r =
          match Pfs.Stream.start_recording streams ~rate_bps:8_000_000 with
          | Ok r -> r
          | Error _ -> Alcotest.fail "denied"
        in
        (* Record 2 MB in 64K chunks with an index mark per chunk. *)
        for i = 0 to 31 do
          Pfs.Stream.index_mark r ~stamp:(ms (i * 40));
          Pfs.Stream.write_chunk r ~len:65536 (fun _ -> ())
        done;
        let fid = Pfs.Stream.recording_fid r in
        Pfs.Stream.finish_recording streams r;
        Sim.Engine.run e;
        Alcotest.(check int) "index built" 32
          (Pfs.Stream.index_size streams ~fid);
        let ended = ref false in
        let played = ref None in
        (match
           Pfs.Stream.start_playback streams ~fid ~rate_bps:8_000_000
             ~on_end:(fun () -> ended := true)
             ()
         with
        | Ok p -> played := Some p
        | Error _ -> Alcotest.fail "playback denied");
        Sim.Engine.run e;
        (match !played with
        | Some p ->
            Alcotest.(check int) "no underruns" 0 (Pfs.Stream.underruns p);
            Alcotest.(check int) "all chunks" 32 (Pfs.Stream.chunks_played p)
        | None -> ());
        Alcotest.(check bool) "ended" true !ended);
    Alcotest.test_case "seek_stamp jumps via the index" `Quick (fun () ->
        let e, _, streams = stream_rig () in
        let r =
          match Pfs.Stream.start_recording streams ~rate_bps:8_000_000 with
          | Ok r -> r
          | Error _ -> Alcotest.fail "denied"
        in
        for i = 0 to 15 do
          Pfs.Stream.index_mark r ~stamp:(ms (i * 40));
          Pfs.Stream.write_chunk r ~len:65536 (fun _ -> ())
        done;
        let fid = Pfs.Stream.recording_fid r in
        Pfs.Stream.finish_recording streams r;
        Sim.Engine.run e;
        let p =
          match Pfs.Stream.start_playback streams ~fid ~rate_bps:8_000_000 () with
          | Ok p -> p
          | Error _ -> Alcotest.fail "denied"
        in
        (* "Go to 200 ms": marks at 0,40,...; 200ms is mark 5 = chunk 5. *)
        Pfs.Stream.seek_stamp p (ms 200);
        Alcotest.(check int) "position" (5 * 65536) (Pfs.Stream.position p);
        Pfs.Stream.stop_playback streams p;
        Sim.Engine.run e);
    Alcotest.test_case "reverse play walks backwards to the start" `Quick
      (fun () ->
        let e, _, streams = stream_rig () in
        let r =
          match Pfs.Stream.start_recording streams ~rate_bps:8_000_000 with
          | Ok r -> r
          | Error _ -> Alcotest.fail "denied"
        in
        for _ = 0 to 7 do
          Pfs.Stream.write_chunk r ~len:65536 (fun _ -> ())
        done;
        let fid = Pfs.Stream.recording_fid r in
        Pfs.Stream.finish_recording streams r;
        Sim.Engine.run e;
        let offsets = ref [] in
        let ended = ref false in
        (match
           Pfs.Stream.start_playback streams ~fid ~rate_bps:8_000_000
             ~direction:`Reverse
             ~on_chunk:(fun ~off -> offsets := off :: !offsets)
             ~on_end:(fun () -> ended := true)
             ()
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "denied");
        Sim.Engine.run e;
        Alcotest.(check bool) "ended" true !ended;
        (match !offsets with
        | last :: _ -> Alcotest.(check int) "finishes at 0" 0 last
        | [] -> Alcotest.fail "nothing played");
        Alcotest.(check int) "all chunks" 8 (List.length !offsets));
  ]

let extension_tests =
  [
    Alcotest.test_case "battery-backed memory survives a power cut" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~segment_bytes:seg_64k () in
        let log = Pfs.Log.create e ~raid () in
        let server =
          Pfs.Client_agent.Server.create e ~log
            ~write_delay:(Sim.Time.sec 30) ~nvram:true ()
        in
        let agent = Pfs.Client_agent.Agent.create e ~server () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 5);
        (* power cut: both sides die *)
        Pfs.Client_agent.Server.crash server;
        Pfs.Client_agent.Agent.crash agent;
        let mid = Pfs.Client_agent.audit server in
        Alcotest.(check int) "recoverable in NVRAM" 0 mid.Pfs.Client_agent.lost;
        Pfs.Client_agent.Server.recover server;
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        let fin = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable after recovery" 1
          fin.Pfs.Client_agent.durable;
        Alcotest.(check int) "lost" 0 fin.Pfs.Client_agent.lost);
    Alcotest.test_case "Log.peek returns stored bytes without time passing"
      `Quick (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        let data = pattern 100_000 3 in
        write_ok e log fid ~off:0 data;
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        let t0 = Sim.Engine.now e in
        (match Pfs.Log.peek log fid ~off:0 ~len:100_000 with
        | Some b -> Alcotest.(check bytes) "bytes" data b
        | None -> Alcotest.fail "peek failed");
        Alcotest.check time "no time consumed" t0 (Sim.Engine.now e));
    Alcotest.test_case "peek on a timing-only array returns None" `Quick
      (fun () ->
        let e, _, log = rig ~store_data:false () in
        let fid = Pfs.Log.create_file log () in
        Pfs.Log.write log fid ~off:0 ~len:100 (fun _ -> ());
        Sim.Engine.run e;
        Alcotest.(check bool) "none" true
          (Pfs.Log.peek log fid ~off:0 ~len:100 = None));
  ]

(* Model-based property test: arbitrary write/overwrite/delete/sync/
   clean sequences must leave every surviving file byte-identical to a
   plain in-memory reference. *)

type model_op =
  | M_write of int * int * int  (* file slot, offset, length *)
  | M_delete of int
  | M_sync
  | M_clean

let model_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map3 (fun f off len -> M_write (f, off, len))
              (int_range 0 3) (int_range 0 20_000) (int_range 1 9_000));
        (1, map (fun f -> M_delete f) (int_range 0 3));
        (1, return M_sync);
        (1, return M_clean);
      ])

let run_model_ops ops =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:16_384 () in
  let log = Pfs.Log.create e ~raid () in
  let fids = Array.make 4 None in
  let model : bytes option array = Array.make 4 None in
  let tag = ref 0 in
  let apply = function
    | M_write (slot, off, len) ->
        incr tag;
        let fid =
          match fids.(slot) with
          | Some fid -> fid
          | None ->
              let fid = Pfs.Log.create_file log () in
              fids.(slot) <- Some fid;
              model.(slot) <- Some Bytes.empty;
              fid
        in
        let data = pattern len !tag in
        Pfs.Log.write log fid ~off ~data ~len (fun r ->
            match r with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "model write failed");
        let old = match model.(slot) with Some b -> b | None -> Bytes.empty in
        let size = Stdlib.max (Bytes.length old) (off + len) in
        let next = Bytes.make size '\000' in
        Bytes.blit old 0 next 0 (Bytes.length old);
        Bytes.blit data 0 next off len;
        model.(slot) <- Some next
    | M_delete slot -> begin
        match fids.(slot) with
        | None -> ()
        | Some fid ->
            Pfs.Log.delete log fid ~k:(fun _ -> ());
            fids.(slot) <- None;
            model.(slot) <- None
      end
    | M_sync -> Pfs.Log.sync log ~k:(fun _ -> ())
    | M_clean ->
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Cleaner.run log (fun _ -> ())
  in
  List.iter
    (fun op ->
      apply op;
      Sim.Engine.run e)
    ops;
  (* Verify every surviving file against the reference. *)
  let ok = ref true in
  Array.iteri
    (fun slot fid ->
      match (fid, model.(slot)) with
      | Some fid, Some expected when Bytes.length expected > 0 ->
          let got = ref None in
          Pfs.Log.read log fid ~off:0 ~len:(Bytes.length expected)
            ~k:(fun r -> got := Some r);
          Sim.Engine.run e;
          (match !got with
          | Some (Ok (Some b)) -> if not (Bytes.equal b expected) then ok := false
          | _ -> ok := false)
      | _ -> ())
    fids;
  !ok

let model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"log matches a reference model under churn"
         ~count:40
         QCheck2.Gen.(list_size (int_range 5 40) model_op_gen)
         run_model_ops);
  ]

let recovery_tests =
  [
    Alcotest.test_case "sealed data survives a crash, buffered data is lost"
      `Quick (fun () ->
        let e, _, log = rig () in
        let safe = Pfs.Log.create_file log () in
        let durable = pattern 20_000 1 in
        write_ok e log safe ~off:0 durable;
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        (* Written after the last seal: only in the open buffer. *)
        let fresh = Pfs.Log.create_file log () in
        Pfs.Log.write log fresh ~off:0 ~len:5_000 (fun _ -> ());
        Sim.Engine.run e;
        let lost = ref (-1) in
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes -> lost := lost_bytes);
        Sim.Engine.run e;
        Alcotest.(check bool) "buffered bytes lost" true (!lost >= 5_000);
        Alcotest.(check bool) "sealed file intact" true
          (Pfs.Log.file_exists log safe);
        Alcotest.(check bytes) "content intact" durable
          (read_back e log safe ~off:0 ~len:20_000);
        Alcotest.(check bool) "fresh file rolled back" false
          (Pfs.Log.file_exists log fresh));
    Alcotest.test_case "a delete after the last seal is rolled back" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (pattern 10_000 2);
        Pfs.Log.checkpoint log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.delete log fid ~k:(fun _ -> ());
        Sim.Engine.run e;
        Alcotest.(check bool) "deleted" false (Pfs.Log.file_exists log fid);
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        (* The LFS quirk the interface documents: the delete vanished. *)
        Alcotest.(check bool) "file resurrected" true
          (Pfs.Log.file_exists log fid);
        Alcotest.(check bytes) "content back" (pattern 10_000 2)
          (read_back e log fid ~off:0 ~len:10_000));
    Alcotest.test_case "the log keeps working after recovery" `Quick (fun () ->
        let e, _, log = rig () in
        let a = Pfs.Log.create_file log () in
        write_ok e log a ~off:0 (pattern 30_000 3);
        Pfs.Log.checkpoint log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        let b = Pfs.Log.create_file log () in
        write_ok e log b ~off:0 (pattern 30_000 4);
        Alcotest.(check bytes) "old" (pattern 30_000 3)
          (read_back e log a ~off:0 ~len:30_000);
        Alcotest.(check bytes) "new" (pattern 30_000 4)
          (read_back e log b ~off:0 ~len:30_000);
        (* and the cleaner still works on the recovered state *)
        Pfs.Log.delete log a ~k:(fun _ -> ());
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Cleaner.run log (fun stats ->
            Alcotest.(check bool) "reclaimed" true
              (stats.Pfs.Cleaner.bytes_reclaimed > 0));
        Sim.Engine.run e;
        Alcotest.(check bytes) "survivor intact" (pattern 30_000 4)
          (read_back e log b ~off:0 ~len:30_000));
    Alcotest.test_case "a double crash does not resurrect post-recovery state"
      `Quick (fun () ->
        let e, _, log = rig () in
        let a = Pfs.Log.create_file log () in
        write_ok e log a ~off:0 (pattern 1_000 1);
        Pfs.Log.checkpoint log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        (* mutate after recovery, seal, crash again *)
        write_ok e log a ~off:0 (pattern 1_000 9);
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        Alcotest.(check bytes) "latest sealed state" (pattern 1_000 9)
          (read_back e log a ~off:0 ~len:1_000));
  ]

let () =
  Alcotest.run "pfs"
    [
      ("disk", disk_tests);
      ("raid", raid_tests);
      ("log", log_tests);
      ("garbage", garbage_tests);
      ("cleaner", cleaner_tests);
      ("cache", cache_tests);
      ("client-agent", agent_tests);
      ("stream", stream_tests);
      ("extensions", extension_tests);
      ("model", model_tests);
      ("recovery", recovery_tests);
    ]
