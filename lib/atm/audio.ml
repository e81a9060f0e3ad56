(* Cell payload layout: [stamp:i64][seq:u32][nsamples:u16][pcm bytes]. *)
let header_bytes = 14
let samples_per_cell = (Cell.payload_bytes - header_bytes) / 2

module Source = struct
  type t = {
    engine : Sim.Engine.t;
    vc : Net.vc;
    sample_rate : int;
    channels : int;
    cell_period : Sim.Time.t;
    mutable running : bool;
    mutable seq : int;
    mutable sent : int;
    mutable mark_every : int;
    mutable on_mark : (seq:int -> stamp:Sim.Time.t -> unit) option;
  }

  let create engine ~vc ?(sample_rate = 44100) ?(channels = 2) () =
    let frames_per_cell = samples_per_cell / channels in
    let cell_period =
      Sim.Time.of_sec_f (Float.of_int frames_per_cell /. Float.of_int sample_rate)
    in
    {
      engine;
      vc;
      sample_rate;
      channels;
      cell_period;
      running = false;
      seq = 0;
      sent = 0;
      mark_every = 0;
      on_mark = None;
    }

  let on_mark t ~every f =
    t.mark_every <- every;
    t.on_mark <- Some f

  let make_cell t =
    let cell = Cell.make_blank ~vci:0 ~last:false in
    Util.put_time cell.buf (cell.off + 0) (Sim.Engine.now t.engine);
    Util.put_u32 cell.buf (cell.off + 8) t.seq;
    Util.put_u16 cell.buf (cell.off + 12) samples_per_cell;
    (* Deterministic PCM ramp so tests can verify integrity. *)
    for i = 0 to samples_per_cell - 1 do
      Util.put_u16 cell.buf (cell.off + header_bytes + (2 * i)) ((t.seq + i) land 0xffff)
    done;
    cell

  let rec tick t =
    if t.running then begin
      Net.send t.vc (make_cell t);
      (match t.on_mark with
      | Some f when t.mark_every > 0 && t.seq mod t.mark_every = 0 ->
          f ~seq:t.seq ~stamp:(Sim.Engine.now t.engine)
      | Some _ | None -> ());
      t.seq <- t.seq + 1;
      t.sent <- t.sent + 1;
      ignore (Sim.Engine.schedule t.engine ~delay:t.cell_period (fun () -> tick t))
    end

  let start t =
    if not t.running then begin
      t.running <- true;
      tick t
    end

  let stop t = t.running <- false
  let cells_sent t = t.sent
  let cell_period t = t.cell_period

  let data_rate_bps t =
    Float.of_int (t.sample_rate * t.channels * 16)
end

module Sink = struct
  type t = {
    engine : Sim.Engine.t;
    cell_period : Sim.Time.t;
    playout_delay : Sim.Time.t;
    mutable base : Sim.Time.t option;  (* play-out time of seq 0 *)
    mutable received : int;
    mutable late : int;
    mutable highest_seq : int;
    delay_us : Sim.Stats.Samples.t;
    mutable on_playout : (seq:int -> stamp:Sim.Time.t -> unit) option;
  }

  let create engine ?(sample_rate = 44100) ?(channels = 2)
      ?(playout_delay = Sim.Time.ms 2) () =
    let frames_per_cell = samples_per_cell / channels in
    let cell_period =
      Sim.Time.of_sec_f (Float.of_int frames_per_cell /. Float.of_int sample_rate)
    in
    {
      engine;
      cell_period;
      playout_delay;
      base = None;
      received = 0;
      late = 0;
      highest_seq = -1;
      delay_us = Sim.Stats.Samples.create ();
      on_playout = None;
    }

  let cell_rx t (cell : Cell.t) =
    let now = Sim.Engine.now t.engine in
    let stamp = Util.get_time cell.buf (cell.off + 0) in
    let seq = Util.get_u32 cell.buf (cell.off + 8) in
    t.received <- t.received + 1;
    if seq > t.highest_seq then t.highest_seq <- seq;
    Sim.Stats.Samples.add t.delay_us (Sim.Time.to_us_f (Sim.Time.sub now stamp));
    let base =
      match t.base with
      | Some b -> b
      | None ->
          (* First cell anchors the play-out schedule. *)
          let b =
            Sim.Time.sub (Sim.Time.add now t.playout_delay)
              (Sim.Time.mul t.cell_period seq)
          in
          t.base <- Some b;
          b
    in
    let play_at = Sim.Time.add base (Sim.Time.mul t.cell_period seq) in
    if Sim.Time.(play_at < now) then t.late <- t.late + 1
    else
      ignore
        (Sim.Engine.schedule_at t.engine ~at:play_at (fun () ->
             match t.on_playout with
             | Some f -> f ~seq ~stamp
             | None -> ()))

  let cells_received t = t.received
  let late_cells t = t.late
  let lost_cells t = Stdlib.max 0 (t.highest_seq + 1 - t.received)
  let delay_us t = t.delay_us

  let jitter_us t =
    let samples = Sim.Stats.Samples.to_array t.delay_us in
    let summary = Sim.Stats.Summary.create () in
    Array.iter (Sim.Stats.Summary.add summary) samples;
    Sim.Stats.Summary.stddev summary

  let on_playout t f = t.on_playout <- Some f
end
