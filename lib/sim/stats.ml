module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. Float.of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x

  let clear t =
    t.n <- 0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.min <- infinity;
    t.max <- neg_infinity;
    t.total <- 0.0

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. Float.of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
  let total t = t.total

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. Float.of_int b.n /. Float.of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. Float.of_int a.n *. Float.of_int b.n /. Float.of_int n)
      in
      {
        n;
        mean;
        m2;
        min = Stdlib.min a.min b.min;
        max = Stdlib.max a.max b.max;
        total = a.total +. b.total;
      }
    end

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.n t.mean
      (stddev t) t.min t.max
end

let percentile_sorted sorted n p =
  let rank = p /. 100.0 *. Float.of_int (n - 1) in
  let lo = Float.to_int (Float.floor rank) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = rank -. Float.of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

module Samples = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
  }

  let create () = { data = [||]; len = 0; sorted = false }

  let add t x =
    if t.len = Array.length t.data then begin
      let ncap = if t.len = 0 then 64 else t.len * 2 in
      let narr = Array.make ncap 0.0 in
      Array.blit t.data 0 narr 0 t.len;
      t.data <- narr
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false

  let count t = t.len

  let clear t =
    t.len <- 0;
    t.sorted <- false

  let ensure_sorted t =
    if not t.sorted then begin
      let sub = Array.sub t.data 0 t.len in
      Array.sort Float.compare sub;
      Array.blit sub 0 t.data 0 t.len;
      t.sorted <- true
    end

  let percentile t p =
    if t.len = 0 then invalid_arg "Samples.percentile: empty";
    ensure_sorted t;
    percentile_sorted t.data t.len p

  (* Raises like [min]/[max]/[percentile] do: the old silent-0.0
     return let an empty sample set masquerade as a measured zero
     (e.g. a zero RPC round-trip when no reply ever arrived). *)
  let mean t =
    if t.len = 0 then invalid_arg "Samples.mean: empty";
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s /. Float.of_int t.len

  let min t =
    if t.len = 0 then invalid_arg "Samples.min: empty";
    ensure_sorted t;
    t.data.(0)

  let max t =
    if t.len = 0 then invalid_arg "Samples.max: empty";
    ensure_sorted t;
    t.data.(t.len - 1)

  let to_array t = Array.sub t.data 0 t.len
end

module Reservoir = struct
  (* Algorithm R over a fixed-size buffer.  The first [capacity]
     observations are stored verbatim (so small distributions keep
     exact percentiles); from then on observation [i] replaces a
     uniformly chosen slot with probability [capacity / i].  The
     replacement stream comes from an explicit SplitMix64 generator, so
     the retained sample — and therefore every percentile snapshot — is
     a pure function of (seed, observation sequence). *)
  type t = {
    data : float array;
    scratch : float array;
    mutable stored : int;
    mutable seen : int;
    mutable sorted : bool;
    mutable rng : Rng.t;
    seed : int64;
  }

  let default_capacity = 1024

  (* "reservo" in ASCII — an arbitrary fixed default seed. *)
  let create ?(capacity = default_capacity) ?(seed = 0x7265736572766FL) () =
    if capacity <= 0 then invalid_arg "Reservoir.create: capacity must be > 0";
    {
      data = Array.make capacity 0.0;
      scratch = Array.make capacity 0.0;
      stored = 0;
      seen = 0;
      sorted = false;
      rng = Rng.create ~seed ();
      seed;
    }

  let capacity t = Array.length t.data

  let add t x =
    t.seen <- t.seen + 1;
    let cap = Array.length t.data in
    if t.stored < cap then begin
      t.data.(t.stored) <- x;
      t.stored <- t.stored + 1;
      t.sorted <- false
    end
    else begin
      let j = Rng.int t.rng t.seen in
      if j < cap then begin
        t.data.(j) <- x;
        t.sorted <- false
      end
    end

  let count t = t.seen
  let stored t = t.stored

  let clear t =
    t.stored <- 0;
    t.seen <- 0;
    t.sorted <- false;
    (* Restart the replacement stream too, so a cleared reservoir
       replays exactly like a fresh one. *)
    t.rng <- Rng.create ~seed:t.seed ()

  (* Sorting happens in a scratch copy: [data] must keep insertion
     order, because Algorithm R replaces by slot index. *)
  let sorted_view t =
    if not t.sorted then begin
      Array.blit t.data 0 t.scratch 0 t.stored;
      let sub = Array.sub t.scratch 0 t.stored in
      Array.sort Float.compare sub;
      Array.blit sub 0 t.scratch 0 t.stored;
      t.sorted <- true
    end;
    t.scratch

  let percentile t p =
    if t.stored = 0 then invalid_arg "Reservoir.percentile: empty";
    percentile_sorted (sorted_view t) t.stored p

  let to_array t = Array.sub t.data 0 t.stored
end

module Histogram = struct
  type t = {
    width : float;
    counts : int array;
    mutable n : int;
    mutable oor : int;
  }

  let create ~bucket_width ~buckets =
    assert (bucket_width > 0.0 && buckets > 0);
    { width = bucket_width; counts = Array.make buckets 0; n = 0; oor = 0 }

  (* NaN and negative samples used to land silently in bucket 0
     ([Float.to_int nan = 0], negatives clamped up), polluting the
     lowest bucket; they are tallied separately instead.  Values beyond
     the top bucket are still clamped into it: they are at least
     ordered correctly. *)
  let add t x =
    if Float.is_nan x || x < 0.0 then t.oor <- t.oor + 1
    else begin
      let b = Float.to_int (x /. t.width) in
      let b = Stdlib.min b (Array.length t.counts - 1) in
      t.counts.(b) <- t.counts.(b) + 1;
      t.n <- t.n + 1
    end

  let count t = t.n
  let out_of_range t = t.oor
  let bucket_count t i = t.counts.(i)

  let pp fmt t =
    Format.fprintf fmt "@[<v>";
    Array.iteri
      (fun i c ->
        if c > 0 then
          Format.fprintf fmt "[%8.1f,%8.1f) %d@,"
            (t.width *. Float.of_int i)
            (t.width *. Float.of_int (i + 1))
            c)
      t.counts;
    if t.oor > 0 then Format.fprintf fmt "out-of-range (NaN/negative) %d@," t.oor;
    Format.fprintf fmt "@]"
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () = Hashtbl.create 16

  let incr ?(by = 1) t name =
    match Hashtbl.find_opt t name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t name (ref by)

  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end
