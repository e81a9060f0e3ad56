type t = {
  id : int;
  label : string;
  work : Sim.Time.t;
  deadline : Sim.Time.t option;
  created : Sim.Time.t;
  flow : int;
  mutable remaining : Sim.Time.t;
  on_complete : (unit -> unit) option;
}

let next_id = ref 0

let make ?(label = "") ?deadline ?on_complete ?(flow = Sim.Trace.no_flow) ~work
    ~created () =
  incr next_id;
  {
    id = !next_id;
    label;
    work;
    deadline;
    created;
    flow;
    remaining = work;
    on_complete;
  }

let deadline_key t =
  match t.deadline with Some d -> d | None -> Sim.Time.never
