(* The benchmark executable.  perfbench/run.py builds it in release mode and
   runs it as

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --golden perfbench/golden.tsv [--spans-out PATH] [--nproc N]

   It prints the host context, the per-iteration host times, a
   human-readable metric table and, as its last line, one JSON object
   with the keys correct, attempted, failed and metrics.  It exits 1
   when an outcome check fails -- a digest that differs from the golden
   table, between iterations or between traced and untraced runs --
   and 2 on bad arguments or a build that is not the release profile.
   Failed simulated operations are counted in [failed]; the golden
   digest pins how many there are, so a change in that number is a
   mismatch.  [--print-digest] runs one iteration and prints its
   golden-table line, for any profile. *)

open Perfbench

let json_string s = "\"" ^ String.escaped s ^ "\""

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 20.0 in
  let trace = ref 0 and golden = ref "perfbench/golden.tsv" in
  let spans_out = ref "" and nproc = ref 0 and print_digest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--golden", Arg.Set_string golden, "PATH golden digest table");
      ("--spans-out", Arg.Set_string spans_out, "PATH where the traced run writes its spans");
      ("--nproc", Arg.Set_int nproc, "N host core count to record");
      ( "--print-digest",
        Arg.Set print_digest,
        " print one iteration's golden-table line (and its record on stderr)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let fail msg =
    prerr_endline ("pegbench: " ^ msg);
    exit 2
  in
  let w =
    match Registry.find !workload with
    | Some w -> w
    | None ->
        fail
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map Wl.name (Registry.all ()))))
  in
  if !seed < 0 then fail "--seed must be given and non-negative";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !print_digest then begin
    let it = Harness.iteration w ~seed:!seed ~traced:false in
    Printf.printf "%s %d %s\n" !workload !seed it.Harness.digest;
    prerr_endline (Outcome.record it.res.Wl.outcome);
    exit 0
  end;
  if Build_info.profile <> "release" then
    fail
      (Printf.sprintf
         "built with the %S profile; timings need dune build --profile release"
         Build_info.profile);
  let golden = Outcome.load_golden !golden in
  let traced = !trace = 1 in
  let warm, its = Harness.run w ~seed:!seed ~seconds:!seconds ~trace:traced in
  (* Outcome checks. *)
  let d = warm.Harness.digest in
  let pinned = Outcome.check golden ~workload:!workload ~seed:!seed d in
  let stable = List.for_all (fun i -> i.Harness.digest = d) its in
  let attempted = Stdlib.max 1 warm.res.Wl.attempted in
  let op_failed =
    List.fold_left (fun m i -> Stdlib.max m i.Harness.res.Wl.failed) 0 (warm :: its)
  in
  let problems =
    (match pinned with
    | Outcome.Mismatch g -> [ Printf.sprintf "digest %s differs from the golden %s" d g ]
    | Match | Unpinned -> [])
    @
    if stable then []
    else [ "digests differ between iterations (or traced and untraced)" ]
  in
  (* A wrong outcome fails every operation; otherwise count the
     operations the workload's own checks failed. *)
  let failed =
    match pinned with
    | Outcome.Mismatch _ -> attempted
    | _ -> if stable then op_failed else attempted
  in
  let n_slices = Array.length warm.Harness.slices in
  Printf.printf
    "context {\"workload\": %s, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \
     \"ocaml\": %s, \"profile\": %s, \"domains\": 1, \"iterations\": %d, \
     \"slices_per_iteration\": %d, \"tail_percentile\": %.1f, \"digest\": \
     %s, \"golden\": %s%s}\n"
    (json_string !workload) !seed !trace !nproc
    (json_string Sys.ocaml_version)
    (json_string Build_info.profile)
    (List.length its) n_slices
    (Harness.tail_percentile n_slices)
    (json_string d)
    (json_string
       (match pinned with
       | Outcome.Match -> "match"
       | Mismatch _ -> "MISMATCH"
       | Unpinned -> "unpinned"))
    (String.concat ""
       (List.map
          (fun (k, v) -> Printf.sprintf ", %s: %d" (json_string k) v)
          warm.res.Wl.notes));
  List.iter (fun p -> Printf.printf "problem: %s\n" p) problems;
  let each f = String.concat " " (List.map (fun i -> Printf.sprintf "%.4f" (f i)) its) in
  Printf.printf "iterations setup_s: %s\n" (each (fun i -> i.Harness.setup_s));
  Printf.printf "iterations wall_s: %s\n" (each (fun i -> i.Harness.wall_s));
  let traced_its, untraced = List.partition (fun i -> i.Harness.agg <> None) its in
  Printf.printf "wall_s best whole iteration %.6f, best slices stitched %.6f\n"
    (Harness.best (fun i -> i.Harness.wall_s) untraced)
    (Harness.wall untraced);
  let values =
    if traced then Harness.per_layer ~traced:traced_its ~untraced
    else Harness.end_to_end its
  in
  Printf.printf "%-28s %16.6f ratio (%d of %d operations)\n" "failed_frac"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  List.iter (fun (n, v, u) -> Printf.printf "%-28s %16.6f %s\n" n v u) values;
  if traced && !spans_out <> "" then Span.write_jsonl !spans_out;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (problems = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
              (json_num v) (json_string u))
          values));
  exit (if problems = [] then 0 else 1)
