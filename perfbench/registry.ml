(* Every workload the benchmark knows, by name. *)

let all () =
  [
    Pfs_churn.workload ();
    Vod_flash.workload ();
    City_admit.workload ();
    Fabric_shard.workload ();
  ]

let find name = List.find_opt (fun w -> Wl.name w = name) (all ())
