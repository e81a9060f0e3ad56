(* The benchmark's own tests: slicing and tracing leave the simulated
   outcome alone, the digest check catches a perturbed outcome, the
   names printed match BENCHMARK.json, and one seed gives one input
   stream.  Workloads run at reduced sizes here; the committed golden
   digests are checked at full size for the tuning seed. *)

open Perfbench

let small_pfs =
  {
    Pfs_churn.volumes = 2;
    population = 32;
    traffic = Sim.Time.sec 60;
    clean_every = Sim.Time.sec 20;
    sync_every = Sim.Time.sec 10;
    crash_after = Sim.Time.sec 10;
    drain = Sim.Time.sec 30;
    step = Sim.Time.sec 2;
  }

let small_vod =
  { Vod_flash.clients = 8; half = Sim.Time.ms 200; step = Sim.Time.ms 10 }

let small_city = { City_admit.worlds = 6; offered_hi = 64 }

let small_fabric =
  {
    Fabric_shard.sites = 3;
    streams_per_site = 4;
    duration = Sim.Time.ms 40;
    step = Sim.Time.ms 2;
  }

let small () =
  [
    Pfs_churn.workload ~p:small_pfs ();
    Vod_flash.workload ~p:small_vod ();
    City_admit.workload ~p:small_city ();
    Fabric_shard.workload ~p:small_fabric ();
  ]

let digest ?(traced = false) w ~seed = (Harness.iteration w ~seed ~traced).Harness.digest

(* {1 Slicing and tracing are outcome-neutral} *)

let slices_equal_one_run () =
  let pairs =
    [
      ( Pfs_churn.workload ~p:small_pfs (),
        Pfs_churn.workload ~p:{ small_pfs with step = Sim.Time.sec 100 } () );
      ( Vod_flash.workload ~p:small_vod (),
        Vod_flash.workload ~p:{ small_vod with step = Sim.Time.ms 400 } () );
      ( Fabric_shard.workload ~p:small_fabric (),
        Fabric_shard.workload ~p:{ small_fabric with step = Sim.Time.ms 40 } () );
    ]
  in
  List.iter
    (fun (sliced, whole) ->
      Alcotest.(check string)
        (Wl.name sliced ^ " sliced = unsliced")
        (digest whole ~seed:3) (digest sliced ~seed:3))
    pairs

let traced_equals_untraced () =
  List.iter
    (fun w ->
      Alcotest.(check string)
        (Wl.name w ^ " traced = untraced")
        (digest w ~seed:5)
        (digest ~traced:true w ~seed:5))
    (small ())

let spans_nest () =
  let w = Vod_flash.workload ~p:small_vod () in
  let it = Harness.iteration w ~seed:2 ~traced:true in
  let agg = Option.get it.Harness.agg in
  Alcotest.(check bool) "reads are spanned" true (agg.Span.calls.(Span.pfs_dir_read) > 0);
  (* Sends run in engine callbacks: children of sim.run, so they come
     out of the engine's self time, never below zero. *)
  Array.iteri
    (fun k s ->
      if s < 0 then Alcotest.failf "negative self time for %s" Span.names.(k))
    agg.Span.self_ns;
  let layers =
    List.fold_left
      (fun a l -> a + Span.layer_self_ns agg l)
      0 Span.[ Sim; Atm; Pfs; Workloads ]
  in
  Alcotest.(check int) "layer self times add up to the top-level spans"
    agg.Span.top_ns layers

(* {1 Failed operations} *)

(* vod-flash, city-admit and fabric-shard fail no operation.  The
   writes pfs-churn fails are exactly those the agent counts
   acknowledged although the caller's callback never ran:
   [Agent.replay] resends a write first offered while the server was
   down without its callback. *)
let failures_reported () =
  List.iter
    (fun w ->
      let res = (Harness.iteration w ~seed:5 ~traced:false).Harness.res in
      let dropped =
        Option.value ~default:0 (List.assoc_opt "ack_callbacks_dropped" res.Wl.notes)
      in
      Alcotest.(check int) (Wl.name w ^ " failed operations") dropped res.Wl.failed)
    (small ())

(* {1 The digest check} *)

let perturbed_outcome_fails () =
  let w = City_admit.workload ~p:small_city () in
  let it = Harness.iteration w ~seed:4 ~traced:false in
  let record = Outcome.record it.Harness.res.Wl.outcome in
  let golden = Hashtbl.create 1 in
  Hashtbl.replace golden ("city-admit", 4) it.Harness.digest;
  let check d = Outcome.check golden ~workload:"city-admit" ~seed:4 d in
  Alcotest.(check bool) "the run matches its own digest" true
    (check it.Harness.digest = Outcome.Match);
  (* Bump the delivered-frame count by one. *)
  let key = "delivered=" in
  let rec find i =
    if String.sub record i (String.length key) = key then i else find (i + 1)
  in
  let i = find 0 + String.length key in
  let j = String.index_from record i ';' in
  let n = int_of_string (String.sub record i (j - i)) in
  let perturbed =
    String.sub record 0 i ^ string_of_int (n + 1)
    ^ String.sub record j (String.length record - j)
  in
  (match check (Outcome.digest_of_record perturbed) with
  | Outcome.Mismatch _ -> ()
  | _ -> Alcotest.fail "a perturbed outcome passed the digest check");
  Alcotest.(check bool) "an unknown seed is unpinned" true
    (Outcome.check golden ~workload:"city-admit" ~seed:5 it.Harness.digest
    = Outcome.Unpinned)

let golden_tuning_seed () =
  let golden = Outcome.load_golden "golden.tsv" in
  List.iter
    (fun w ->
      let d = digest w ~seed:1 in
      match Outcome.check golden ~workload:(Wl.name w) ~seed:1 d with
      | Outcome.Match -> ()
      | Mismatch g -> Alcotest.failf "%s seed 1: digest %s, golden %s" (Wl.name w) d g
      | Unpinned -> Alcotest.failf "%s seed 1 has no golden digest" (Wl.name w))
    (Registry.all ())

(* {1 Names against BENCHMARK.json} *)

(* Just enough JSON for BENCHMARK.json: objects, arrays, strings,
   numbers. *)
module J = struct
  type t = Obj of (string * t) list | Arr of t list | Str of string | Num of float

  let parse s =
    let pos = ref 0 in
    let rec ws () =
      while !pos < String.length s && String.contains " \n\r\t" s.[!pos] do
        incr pos
      done
    and expect c =
      ws ();
      if s.[!pos] <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
      incr pos
    and str () =
      expect '"';
      let b = Buffer.create 16 in
      while s.[!pos] <> '"' do
        if s.[!pos] = '\\' then incr pos;
        Buffer.add_char b s.[!pos];
        incr pos
      done;
      incr pos;
      Buffer.contents b
    and value () =
      ws ();
      match s.[!pos] with
      | '{' ->
          incr pos;
          ws ();
          if s.[!pos] = '}' then (incr pos; Obj [])
          else
            let rec fields acc =
              let k = str () in
              expect ':';
              let v = value () in
              ws ();
              let acc = (k, v) :: acc in
              if s.[!pos] = ',' then (incr pos; fields acc)
              else (expect '}'; Obj (List.rev acc))
            in
            fields []
      | '[' ->
          incr pos;
          ws ();
          if s.[!pos] = ']' then (incr pos; Arr [])
          else
            let rec items acc =
              let v = value () in
              ws ();
              if s.[!pos] = ',' then (incr pos; items (v :: acc))
              else (expect ']'; Arr (List.rev (v :: acc)))
            in
            items []
      | '"' -> Str (str ())
      | _ ->
          let st = !pos in
          while !pos < String.length s && String.contains "+-.eE0123456789" s.[!pos] do
            incr pos
          done;
          Num (float_of_string (String.sub s st (!pos - st)))
    in
    value ()

  let field k = function Obj kv -> List.assoc k kv | _ -> failwith k
  let items = function Arr l -> l | _ -> failwith "not an array"
  let str = function Str s -> s | _ -> failwith "not a string"
end

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  J.parse s

let names_match_benchmark_json () =
  let spec = benchmark_json () in
  let names section =
    List.map (fun m -> J.str (J.field "name" m)) (J.items (J.field section spec))
  in
  let with_units section =
    List.map
      (fun m -> (J.str (J.field "name" m), J.str (J.field "unit" m)))
      (J.items (J.field section spec))
  in
  let sl = Alcotest.(list string) and pairs = Alcotest.(list (pair string string)) in
  Alcotest.check sl "workloads" (names "workloads") (List.map Wl.name (Registry.all ()));
  (* The metrics the harness computes carry exactly those names and units. *)
  let w = City_admit.workload ~p:small_city () in
  let plain = Harness.iteration w ~seed:1 ~traced:false in
  let traced = Harness.iteration w ~seed:1 ~traced:true in
  let sorted l = List.sort compare l in
  let name_unit l = sorted (List.map (fun (n, _, u) -> (n, u)) l) in
  Alcotest.check pairs "end_to_end"
    (sorted (with_units "end_to_end"))
    (name_unit (Harness.end_to_end [ plain ]));
  Alcotest.check pairs "per_layer"
    (sorted (with_units "per_layer"))
    (name_unit (Harness.per_layer ~traced:[ traced ] ~untraced:[ plain ]))

(* {1 Generated inputs} *)

let baker_stream ~seed =
  let e = Sim.Engine.create ~trace:(Sim.Trace.create ~enabled:false ()) ~metrics:(Sim.Metrics.create ()) () in
  let log = ref [] and next = ref 0 in
  let note op fid len = log := (Sim.Time.to_ns (Sim.Engine.now e), op, fid, len) :: !log in
  let ops =
    {
      Workloads.Baker.op_create = (fun () -> incr next; note "create" !next 0; !next);
      op_write = (fun ~fid ~off:_ ~len -> note "write" fid len);
      op_overwrite = (fun ~fid ~len -> note "overwrite" fid len);
      op_delete = (fun ~fid -> note "delete" fid 0);
    }
  in
  let g = Pfs_churn.generator e ~seed ~volume:0 ~ops in
  Workloads.Baker.start g;
  Sim.Engine.run e ~until:(Sim.Time.sec 60);
  List.rev !log

let vod_stream ~seed =
  let e = Sim.Engine.create ~trace:(Sim.Trace.create ~enabled:false ()) ~metrics:(Sim.Metrics.create ()) () in
  let log = ref [] in
  let ops =
    {
      Workloads.Vod.op_read =
        (fun ~client ~fid ~off ~len:_ ~k ->
          log := (Sim.Time.to_ns (Sim.Engine.now e), client, fid, off) :: !log;
          ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) k));
    }
  in
  let v = Vod_flash.generator e ~seed ~ops small_vod ~t0:Sim.Time.zero in
  Workloads.Vod.start v;
  Sim.Engine.run e;
  List.rev !log

let same_seed_same_inputs () =
  Alcotest.(check bool) "baker: same seed" true (baker_stream ~seed:9 = baker_stream ~seed:9);
  Alcotest.(check bool) "baker: other seed" false (baker_stream ~seed:9 = baker_stream ~seed:10);
  Alcotest.(check bool) "vod: same seed" true (vod_stream ~seed:9 = vod_stream ~seed:9);
  Alcotest.(check bool) "vod: other seed" false (vod_stream ~seed:9 = vod_stream ~seed:10);
  let inputs seed = (City_admit.setup ~p:small_city ~seed ()).City_admit.inputs in
  Alcotest.(check bool) "city: same seed" true (inputs 9 = inputs 9);
  Alcotest.(check bool) "city: other seed" false (inputs 9 = inputs 10)

let tail_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "ten samples beyond" 90.0 (Harness.tail xs);
  Alcotest.(check (float 1e-9)) "named percentile" 90.0 (Harness.tail_percentile 100);
  Alcotest.(check (float 0.0)) "median" 50.5 (Harness.median xs)

let () =
  Alcotest.run "perfbench"
    [
      ( "outcome",
        [
          Alcotest.test_case "slices give the unsliced digest" `Quick slices_equal_one_run;
          Alcotest.test_case "traced digest equals untraced" `Quick traced_equals_untraced;
          Alcotest.test_case "failed operations are reported" `Quick failures_reported;
          Alcotest.test_case "perturbed outcome fails the check" `Quick perturbed_outcome_fails;
          Alcotest.test_case "golden digests at the tuning seed" `Slow golden_tuning_seed;
        ] );
      ( "report",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick names_match_benchmark_json;
          Alcotest.test_case "spans nest and add up" `Quick spans_nest;
          Alcotest.test_case "tail percentile" `Quick tail_percentile;
        ] );
      ( "inputs",
        [ Alcotest.test_case "one seed, one input stream" `Quick same_seed_same_inputs ] );
    ]
