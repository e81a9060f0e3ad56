type t = {
  rng : Sim.Rng.t;
  fps : int;
  mean : float;
  sigma : float;
  rho : float;
  mutable state : float;  (* deviation from the mean, AR(1) *)
}

let create rng ?(fps = 25) ?(mean_frame_bytes = 40_000) ?(cv = 0.25)
    ?(correlation = 0.9) () =
  let mean = Float.of_int mean_frame_bytes in
  { rng; fps; mean; sigma = cv *. mean; rho = correlation; state = 0.0 }

let fps t = t.fps
let frame_period t = Sim.Time.of_sec_f (1.0 /. Float.of_int t.fps)

let next_frame_bytes t =
  let innovation_sd = t.sigma *. sqrt (1.0 -. (t.rho *. t.rho)) in
  let innovation = Sim.Rng.normal t.rng ~mu:0.0 ~sigma:innovation_sd in
  t.state <- (t.rho *. t.state) +. innovation;
  Int.max 1024 (Float.to_int (t.mean +. t.state))

let mean_rate_bps t = t.mean *. 8.0 *. Float.of_int t.fps
