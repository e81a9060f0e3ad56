(** Online statistics for simulation measurements: one store per job.
    {!Summary} keeps streaming moments, {!Samples} keeps every value
    for exact percentiles, and {!Reservoir} keeps a bounded
    deterministic sample (the store behind {!Metrics} dists). *)

(** Streaming summary: count, mean, variance (Welford), min, max. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val clear : t -> unit
  (** Reset to the freshly-created state, in place. *)

  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
  val merge : t -> t -> t
  val pp : Format.formatter -> t -> unit
end

val percentile_sorted : float array -> int -> float -> float
(** [percentile_sorted a n p] is the [p]th percentile, [p] in
    [\[0, 100\]], of the prefix [a.(0 .. n-1)], which must be sorted
    ascending with [n > 0]: linear interpolation between the two
    nearest ranks.  {!Samples}, {!Reservoir} and {!Monitor}'s windowed
    objectives all compute percentiles through it. *)

(** Sample store with exact percentiles (sorts lazily on query). *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val clear : t -> unit
  (** Drop every sample, in place (capacity is retained). *)

  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]].  Raises [Invalid_argument]
      when empty. *)

  val mean : t -> float
  val min : t -> float
  val max : t -> float
  (** {!mean}, {!min}, {!max} and {!percentile} all raise
      [Invalid_argument] on an empty store — there is no statistic of
      zero samples, and returning a default would let an empty set
      masquerade as a measured value.  Guard with {!count} when empty
      is a legitimate state. *)

  val to_array : t -> float array
end

(** Bounded-memory sample store: a fixed-capacity uniform random sample
    (Vitter's Algorithm R) of an unbounded observation stream.

    Replacement decisions come from an explicit seeded {!Rng}
    generator, so the retained sample — and every percentile computed
    from it — is a deterministic function of [(seed, observations)]:
    two runs that observe the same stream snapshot byte-identically.

    Accuracy: the first [capacity] observations are stored verbatim, so
    below capacity percentiles are {e exact} (identical to {!Samples}).
    Beyond capacity, a percentile estimate from a uniform sample of
    size [k] has standard error ~[sqrt (p * (1-p) / k)] in rank space:
    with the default capacity of 1024 that is ±1.6 rank-percentage
    points for p50 and ±0.7 for p95/p99 (one sigma), independent of
    stream length.  Use {!Samples} when exact order statistics
    matter. *)
module Reservoir : sig
  type t

  val default_capacity : int
  (** 1024. *)

  val create : ?capacity:int -> ?seed:int64 -> unit -> t
  (** Raises [Invalid_argument] if [capacity <= 0].  The default seed
      is a fixed constant, so reservoirs created without one behave
      identically across runs. *)

  val capacity : t -> int

  val add : t -> float -> unit

  val count : t -> int
  (** Total observations seen (not the number retained). *)

  val stored : t -> int
  (** Number of observations currently retained,
      [min count capacity]. *)

  val clear : t -> unit
  (** Drop every sample and restart the replacement stream from the
      seed, in place: a cleared reservoir replays exactly like a fresh
      one. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]], over the retained
      sample.  Raises [Invalid_argument] when empty. *)

  val to_array : t -> float array
  (** The retained sample, in insertion/replacement order. *)
end
