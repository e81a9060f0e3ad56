type counter = {
  c_sub : Subsystem.t;
  c_name : string;
  c_help : string;
  mutable c_value : int;
}

(* The value lives in a one-element [floatarray] rather than a mutable
   float field: in a mixed record the float field is a pointer to a
   boxed float, so every [set] would allocate a fresh box, while a
   flat-float-array store is a plain unboxed write.  Hot-path writers
   (the engine's queue-depth sampler) grab the cell once and write
   through it inline, keeping gauge updates allocation-free. *)
type gauge = {
  g_sub : Subsystem.t;
  g_name : string;
  g_help : string;
  g_cell : floatarray;
}

(* A distribution keeps exact streaming moments in [d_summary] and a
   bounded deterministic reservoir for its percentiles, so it costs
   O(reservoir) memory no matter how long the run. *)
type dist = {
  d_sub : Subsystem.t;
  d_name : string;
  d_help : string;
  d_summary : Stats.Summary.t;
  d_res : Stats.Reservoir.t;
}

(* A windowed observer is a sample fan-out point: components call
   {!sample} unconditionally on their hot path, and the monitor layer
   ({!Monitor}) attaches sinks when a health run wants the stream.
   With no sinks attached the cost is one load and one branch — the
   instrument must be free to leave compiled into every subsystem.
   The sink array is only ever replaced wholesale (never mutated in
   place), so a sampler running concurrently with an attach sees either
   the old or the new array, both valid. *)
type observer = {
  o_sub : Subsystem.t;
  o_name : string;
  o_help : string;
  mutable o_on : bool;
  mutable o_count : int;  (* samples delivered while enabled *)
  mutable o_sinks : (float -> unit) array;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Dist of dist
  | Obs of observer

type t = { tbl : (string * string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let default = create ()

(* Zero every registered metric in place.  Handles alias the registry
   entries, so handles obtained before the reset keep working and their
   updates stay visible in snapshots — the old behaviour (dropping the
   table entries) silently disconnected every live handle. *)
let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g -> Float.Array.set g.g_cell 0 0.0
      | Dist d ->
          Stats.Summary.clear d.d_summary;
          Stats.Reservoir.clear d.d_res
      | Obs o -> o.o_count <- 0)
    t.tbl

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Dist _ -> "dist"
  | Obs _ -> "observer"

(* Get-or-create.  Each accessor matches its own kind on a hit and
   reports any other as a mismatch; [Hashtbl.find] rather than
   [find_opt] keeps a hit free of an option allocation, which matters
   because some callers register on every operation. *)
let find t sub name = Hashtbl.find t.tbl (Subsystem.to_string sub, name)

let add t sub name m =
  Hashtbl.replace t.tbl (Subsystem.to_string sub, name) m

let mismatch sub name m kind =
  invalid_arg
    (Printf.sprintf "Metrics: %s/%s registered as %s, requested as %s"
       (Subsystem.to_string sub) name (kind_name m) kind)

let counter t ~sub ?(help = "") name =
  match find t sub name with
  | Counter c -> c
  | m -> mismatch sub name m "counter"
  | exception Not_found ->
      let c = { c_sub = sub; c_name = name; c_help = help; c_value = 0 } in
      add t sub name (Counter c);
      c

let gauge t ~sub ?(help = "") name =
  match find t sub name with
  | Gauge g -> g
  | m -> mismatch sub name m "gauge"
  | exception Not_found ->
      let g =
        {
          g_sub = sub;
          g_name = name;
          g_help = help;
          g_cell = Float.Array.make 1 0.0;
        }
      in
      add t sub name (Gauge g);
      g

(* Each reservoir is seeded from its identity (FNV-1a over
   "subsystem/name"), so every dist draws an independent, reproducible
   replacement stream: snapshots are byte-identical across runs
   regardless of registration order. *)
let dist_seed sub name =
  let fnv seed s =
    String.fold_left
      (fun h c ->
        Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L)
      seed s
  in
  fnv (fnv (fnv 0xCBF29CE484222325L sub) "/") name

let dist t ~sub ?(help = "") name =
  match find t sub name with
  | Dist d -> d
  | m -> mismatch sub name m "dist"
  | exception Not_found ->
      let d =
        {
          d_sub = sub;
          d_name = name;
          d_help = help;
          d_summary = Stats.Summary.create ();
          d_res =
            Stats.Reservoir.create
              ~seed:(dist_seed (Subsystem.to_string sub) name)
              ();
        }
      in
      add t sub name (Dist d);
      d

let observer t ~sub ?(help = "") name =
  match find t sub name with
  | Obs o -> o
  | m -> mismatch sub name m "observer"
  | exception Not_found ->
      let o =
        {
          o_sub = sub;
          o_name = name;
          o_help = help;
          o_on = false;
          o_count = 0;
          o_sinks = [||];
        }
      in
      add t sub name (Obs o);
      o

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let value c = c.c_value
let set g v = Float.Array.set g.g_cell 0 v
let get g = Float.Array.get g.g_cell 0
let cell g = g.g_cell

(* The disabled path is the contract: one load, one branch, no call —
   cheap enough to leave in every hot loop (CI gates it via
   BENCH_monitor.json).  Only the test is inlined; the fan-out to the
   attached sinks stays out of line, so a disabled sample neither calls
   nor boxes its float. *)
let[@inline never] fan_out o v =
  o.o_count <- o.o_count + 1;
  let sinks = o.o_sinks in
  for i = 0 to Array.length sinks - 1 do
    (Array.unsafe_get sinks i) v
  done

let[@inline] sample o v = if o.o_on then fan_out o v

let attach_sink o f =
  o.o_sinks <- Array.append o.o_sinks [| f |];
  o.o_on <- true

(* Inlined, with {!Stats.Summary.add} and {!Stats.Reservoir.add}, so a
   caller's float reaches the flat summary and the reservoir's float
   array without ever being boxed: [Atm.Link] observes once per
   delivered cell. *)
let[@inline] observe d x =
  Stats.Summary.add d.d_summary x;
  Stats.Reservoir.add d.d_res x

let observed d = Stats.Summary.count d.d_summary

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

let sorted_metrics t =
  Hashtbl.fold (fun key m acc -> (key, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let json_of_metric m =
  let base sub name help kind =
    [
      ("subsystem", Json.String (Subsystem.to_string sub));
      ("name", Json.String name);
      ("kind", Json.String kind);
    ]
    @ if help = "" then [] else [ ("help", Json.String help) ]
  in
  match m with
  | Counter c ->
      Json.Obj (base c.c_sub c.c_name c.c_help "counter" @ [ ("value", Json.Int c.c_value) ])
  | Gauge g ->
      Json.Obj
        (base g.g_sub g.g_name g.g_help "gauge"
        @ [ ("value", Json.Float (Float.Array.get g.g_cell 0)) ])
  | Dist d ->
      let n = Stats.Summary.count d.d_summary in
      let stats =
        if n = 0 then [ ("count", Json.Int 0) ]
        else
          let p q = Json.Float (Stats.Reservoir.percentile d.d_res q) in
          [
            ("count", Json.Int n);
            ("mean", Json.Float (Stats.Summary.mean d.d_summary));
            ("stddev", Json.Float (Stats.Summary.stddev d.d_summary));
            ("min", Json.Float (Stats.Summary.min d.d_summary));
            ("max", Json.Float (Stats.Summary.max d.d_summary));
            ("p50", p 50.0);
            ("p95", p 95.0);
            ("p99", p 99.0);
          ]
      in
      Json.Obj (base d.d_sub d.d_name d.d_help "dist" @ stats)
  | Obs o ->
      Json.Obj
        (base o.o_sub o.o_name o.o_help "observer"
        @ [ ("enabled", Json.Bool o.o_on); ("samples", Json.Int o.o_count) ])

let snapshot t =
  Json.Obj [ ("metrics", Json.List (List.map json_of_metric (sorted_metrics t))) ]

let write t path = Json.to_file path (snapshot t)
