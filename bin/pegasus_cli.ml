(* Command-line driver: list and run the paper-claim experiments. *)

open Cmdliner

let quick_arg =
  let doc = "Run with reduced parameters (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

(* The observability flags below are shared by every subcommand that
   runs a simulation (run, audit, health, parallel, cityscale,
   vodscale); they export the process-default trace sink and metrics
   registry after the run.  The sink keeps every event it records, so
   an export is complete; sharded rigs whose shards carry private
   registries contribute only what they route through the defaults. *)

let trace_out_arg =
  let doc =
    "Record a typed event trace of the run and write it to $(docv) in \
     Chrome trace_event JSON (open in about:tracing or \
     https://ui.perfetto.dev).  Use a .jsonl suffix for line-oriented \
     JSONL instead."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write a JSON snapshot of the metrics registry (counters, gauges, \
     latency distributions with p50/p95/p99) to $(docv) after the run."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let domains_arg =
  let doc =
    "Worker domains for parallelisable work (OCaml 5 only; silently 1 \
     on 4.14).  Results are byte-identical at every value — the domain \
     count buys wall-clock speed, never different answers."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let check_domains domains k =
  if domains < 1 then
    `Error (false, Printf.sprintf "--domains %d: must be >= 1" domains)
  else k ()

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %s\n" e.Experiments.Registry.e_id
          e.Experiments.Registry.e_title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available experiments.")
    Term.(const run $ const ())

let with_observability ~trace_out ~metrics_out f =
  let tr = Sim.Trace.default in
  if Option.is_some trace_out then Sim.Trace.enable tr true;
  let result = f () in
  try
    (match trace_out with
    | Some path ->
        if Filename.check_suffix path ".jsonl" then
          Sim.Trace.write_jsonl tr path
        else Sim.Trace.write_chrome tr path;
        Format.eprintf "wrote %d trace events to %s@." (Sim.Trace.length tr)
          path
    | None -> ());
    (match metrics_out with
    | Some path ->
        Sim.Metrics.write Sim.Metrics.default path;
        Format.eprintf "wrote metrics snapshot to %s@." path
    | None -> ());
    result
  with Sys_error msg -> `Error (false, msg)

let run_cmd =
  let ids =
    let doc = "Experiment ids to run (e.g. E1 E9); omit for all." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run quick trace_out metrics_out domains ids =
    check_domains domains @@ fun () ->
    with_observability ~trace_out ~metrics_out (fun () ->
        match ids with
        | [] ->
            Experiments.Registry.run_all ~quick ~domains Format.std_formatter;
            `Ok ()
        | ids ->
            let rec go = function
              | [] -> `Ok ()
              | id :: rest -> begin
                  match Experiments.Registry.find id with
                  | Some e ->
                      Format.printf "%a@.@." Experiments.Table.pp
                        (e.Experiments.Registry.e_run ~quick ~domains);
                      go rest
                  | None -> `Error (false, "unknown experiment " ^ id)
                end
            in
            go ids)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run experiments and print their tables (all when no id given).")
    Term.(
      ret
        (const run $ quick_arg $ trace_out_arg $ metrics_out_arg $ domains_arg
       $ ids))

let audit_cmd =
  let scenario_arg =
    let scenarios =
      [
        ("video", `Video);
        ("av", `Av);
        ("pfs", `Pfs);
        ("video-pfs", `Video_pfs);
      ]
    in
    let doc =
      "Scenario to trace and audit: " ^ Arg.doc_alts_enum scenarios
      ^ ". $(b,video) is the E1 tile-latency rig, $(b,av) the E2 \
         loaded-path rig, $(b,pfs) the RPC file service, $(b,video-pfs) \
         both on one engine."
    in
    Arg.(value & pos 0 (enum scenarios) `Video & info [] ~docv:"SCENARIO" ~doc)
  in
  let json_arg =
    let doc = "Emit the report as JSON instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-flow end-to-end deadline in microseconds: completed flows \
       slower than this count as misses, attributed to the stage that \
       overran its stream median the most."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-us" ] ~docv:"MICROSECONDS" ~doc)
  in
  let duration_arg =
    let doc = "Simulated run length in milliseconds." in
    Arg.(value & opt int 400 & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let run scenario json deadline_us duration_ms domains trace_out =
    check_domains domains @@ fun () ->
    (* The audit rigs are single-shard worlds: any domain count yields
       the same report (the CI determinism job diffs this). *)
    let tr = Sim.Trace.default in
    (* Flow-only capture (the sink keeps every flow event the audit
       needs), without per-cell detail, so the train fast path stays
       intact and short runs stay cheap. *)
    Sim.Trace.enable tr true;
    Sim.Trace.set_flows tr true;
    Sim.Trace.set_cell_detail tr false;
    let duration = Sim.Time.ms duration_ms in
    let e = Sim.Engine.create () in
    (match scenario with
    | `Video -> Experiments.Audit_scenarios.video ~duration e
    | `Av -> Experiments.Audit_scenarios.av ~duration e
    | `Pfs -> Experiments.Audit_scenarios.pfs ~duration e
    | `Video_pfs -> Experiments.Audit_scenarios.video_pfs ~duration e);
    let deadline_ns = Option.map (fun us -> us * 1_000) deadline_us in
    let report = Sim.Audit.of_trace ?deadline_ns tr in
    try
      (match trace_out with
      | Some path ->
          if Filename.check_suffix path ".jsonl" then
            Sim.Trace.write_jsonl tr path
          else Sim.Trace.write_chrome tr path;
          Format.eprintf "wrote %d trace events to %s@." (Sim.Trace.length tr)
            path
      | None -> ());
      if json then print_string (Sim.Json.to_string (Sim.Audit.to_json report))
      else Format.printf "%a" Sim.Audit.pp report;
      `Ok ()
    with Sys_error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run a flow-traced scenario and print its per-stream QoS audit \
          (stage latency breakdown, end-to-end latency, jitter, deadline \
          misses, critical path).")
    Term.(
      ret
        (const run $ scenario_arg $ json_arg $ deadline_arg $ duration_arg
       $ domains_arg $ trace_out_arg))

let health_cmd =
  let scenario_arg =
    let scenarios =
      List.map (fun n -> (n, n)) Experiments.Health_scenarios.names
    in
    let doc =
      "Health scenario to run: " ^ Arg.doc_alts_enum scenarios
      ^ ". $(b,video) is the E1 rig under healthy load, $(b,congest) the \
         same rig with a scripted wire-loss episode that fires and \
         resolves the cell-loss alert mid-run, $(b,pfs) the RPC file \
         service plus a replicated directory with a retransmission \
         storm, $(b,fabric) a 4-site sharded ring (one monitor per \
         shard, merged in shard order)."
    in
    Arg.(value & pos 0 (enum scenarios) "video" & info [] ~docv:"SCENARIO" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the health report as $(b,pegasus-health/1) JSON instead of a \
       table."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let duration_arg =
    let doc =
      "Simulated run length in milliseconds (default per scenario)."
    in
    Arg.(value & opt (some int) None & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let run scenario json duration_ms domains trace_out metrics_out =
    check_domains domains @@ fun () ->
    (* SLO evaluation runs inside the simulation: the report — including
       every alert transition instant — is byte-identical across runs
       and, for the sharded fabric scenario, across --domains values
       (the CI determinism job diffs both). *)
    with_observability ~trace_out ~metrics_out (fun () ->
        let duration = Option.map Sim.Time.ms duration_ms in
        let report =
          Experiments.Health_scenarios.run ?duration ~domains scenario
        in
        if json then
          print_string (Sim.Json.to_string (Sim.Monitor.to_json report))
        else Format.printf "%a" Sim.Monitor.pp report;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run a monitored scenario and print its SLO health report: \
          per-objective state (ok/pending/firing), breach counts, worst \
          observed burn, and the full pending/firing/resolved transition \
          history with simulated timestamps.")
    Term.(
      ret
        (const run $ scenario_arg $ json_arg $ duration_arg $ domains_arg
       $ trace_out_arg $ metrics_out_arg))

let parallel_cmd =
  let sites_arg =
    let doc = "Number of sites (= shards) in the fabric." in
    Arg.(value & opt (some int) None & info [ "sites" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Seed for the deterministic source phases." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run quick domains sites seed trace_out metrics_out =
    check_domains domains @@ fun () ->
    match sites with
    | Some s when s < 1 ->
        `Error (false, Printf.sprintf "--sites %d: must be >= 1" s)
    | _ ->
        with_observability ~trace_out ~metrics_out (fun () ->
            Format.printf "%a@." Experiments.Table.pp
              (Experiments.Fabric.run ~quick ~domains ?sites ?seed ());
            `Ok ())
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:
         "Run the sharded multi-site fabric (conservative parallel \
          simulation over OCaml domains) and print its table.  The table \
          is byte-identical at every $(b,--domains) value; the CI \
          determinism job diffs it across 1, 2 and 4.")
    Term.(
      ret
        (const run $ quick_arg $ domains_arg $ sites_arg $ seed_arg
       $ trace_out_arg $ metrics_out_arg))

let cityscale_cmd =
  let seed_arg =
    let doc = "Seed for the deterministic contract arrival pattern." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run quick domains seed trace_out metrics_out =
    check_domains domains @@ fun () ->
    with_observability ~trace_out ~metrics_out (fun () ->
        Format.printf "%a@." Experiments.Table.pp
          (Experiments.E14_cityscale.run ~quick ~domains ?seed ());
        `Ok ())
  in
  Cmd.v
    (Cmd.info "cityscale"
       ~doc:
         "Run the city-scale admission sweep (experiment E14): a Clos \
          fabric takes 10 to 10,000 offered stream contracts through the \
          network QoS manager and reports accept/degrade/reject rates, \
          per-class jitter and video fairness.  The table is \
          byte-identical at every $(b,--domains) value.")
    Term.(
      ret
        (const run $ quick_arg $ domains_arg $ seed_arg $ trace_out_arg
       $ metrics_out_arg))

let vodscale_cmd =
  let run quick domains trace_out metrics_out =
    check_domains domains @@ fun () ->
    with_observability ~trace_out ~metrics_out (fun () ->
        Format.printf "%a@." Experiments.Table.pp
          (Experiments.E15_vodscale.run ~quick ~domains ());
        `Ok ())
  in
  Cmd.v
    (Cmd.info "vodscale"
       ~doc:
         "Run the VOD flash-crowd sweep (experiment E15): a sharded file \
          service under Zipf read traffic with a scripted popularity flip, \
          comparing static placement, per-server caching and \
          popularity-aware replication on flash-window throughput and \
          p50/p95/p99 read tails.  The table is byte-identical at every \
          $(b,--domains) value.")
    Term.(
      ret
        (const run $ quick_arg $ domains_arg $ trace_out_arg $ metrics_out_arg))

let () =
  let doc = "Pegasus/Nemesis reproduction: experiments driver." in
  let info = Cmd.info "pegasus_cli" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; audit_cmd; health_cmd; parallel_cmd;
            cityscale_cmd; vodscale_cmd;
          ]))
