module Summary = struct
  (* The five floats live in their own all-float record, which OCaml
     stores flat (unboxed doubles).  Mixed with the [int] count in one
     record, every float field would be a pointer to a boxed double,
     and each [add] would allocate a fresh box per float it stores --
     per delivered ATM cell, through {!Metrics.observe}. *)
  type acc = {
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  type t = { mutable n : int; f : acc }

  let create () =
    { n = 0; f = { mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 } }

  let[@inline] add t x =
    t.n <- t.n + 1;
    let f = t.f in
    let delta = x -. f.mean in
    f.mean <- f.mean +. (delta /. Float.of_int t.n);
    f.m2 <- f.m2 +. (delta *. (x -. f.mean));
    if x < f.min then f.min <- x;
    if x > f.max then f.max <- x;
    f.total <- f.total +. x

  let clear t =
    t.n <- 0;
    let f = t.f in
    f.mean <- 0.0;
    f.m2 <- 0.0;
    f.min <- infinity;
    f.max <- neg_infinity;
    f.total <- 0.0

  let count t = t.n
  let mean t = t.f.mean
  let variance t = if t.n < 2 then 0.0 else t.f.m2 /. Float.of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.f.min
  let max t = t.f.max
  let total t = t.f.total

  let copy t = { n = t.n; f = { t.f with mean = t.f.mean } }

  let merge a b =
    if a.n = 0 then copy b
    else if b.n = 0 then copy a
    else begin
      let n = a.n + b.n in
      let fa = a.f and fb = b.f in
      let delta = fb.mean -. fa.mean in
      let mean = fa.mean +. (delta *. Float.of_int b.n /. Float.of_int n) in
      let m2 =
        fa.m2 +. fb.m2
        +. (delta *. delta *. Float.of_int a.n *. Float.of_int b.n /. Float.of_int n)
      in
      {
        n;
        f =
          {
            mean;
            m2;
            (* Stdlib's NaN behaviour without its polymorphic compare. *)
            min = (if fa.min <= fb.min then fa.min else fb.min);
            max = (if fa.max >= fb.max then fa.max else fb.max);
            total = fa.total +. fb.total;
          };
      }
    end

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.n t.f.mean
      (stddev t) t.f.min t.f.max
end

let percentile_sorted sorted n p =
  let rank = p /. 100.0 *. Float.of_int (n - 1) in
  let lo = Float.to_int (Float.floor rank) in
  let hi = Int.min (lo + 1) (n - 1) in
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

  let[@inline] add t x =
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
