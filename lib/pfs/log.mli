(** The core layer: a log-structured store over the RAID.

    The log is divided into megabyte segments.  Normal file data fills
    "normal" segments; continuous-media data is collected in separate
    segments, though its metadata (pnodes) is appended to the normal
    log like everything else.  Overwrites and deletes do not touch old
    data — they record holes in the {!Garbage} file, from which the
    cleaner later reclaims whole segments.

    All disk-touching operations are continuation-passing; [k] runs at
    the simulated completion time. *)

type t

type kind = Normal | Continuous

type fid = int

type error = [ `Lost | `No_such_file ]

val create : Sim.Engine.t -> raid:Raid.t -> unit -> t

val engine : t -> Sim.Engine.t
val raid : t -> Raid.t
val garbage : t -> Garbage.t
val segment_bytes : t -> int

(** {1 Files} *)

val create_file : t -> ?kind:kind -> unit -> fid
(** Allocate a file.  [kind] (default [Normal]) selects which open
    segment its data goes to. *)

val file_exists : t -> fid -> bool
val file_size : t -> fid -> int
(** Raises [Not_found] for unknown files. *)

val write :
  t ->
  fid ->
  off:int ->
  ?data:bytes ->
  ?flow:int ->
  len:int ->
  ((unit, error) result -> unit) ->
  unit
(** Write [len] bytes at [off] (zeros when [data] is omitted).
    Overwritten ranges become garbage.  [k] fires once the data is in
    the log — immediately if it only filled the open segment buffer,
    or after the RAID write when it sealed one or more segments.
    A pnode update is appended to the normal log as a side effect,
    obsoleting the previous pnode.
    When [flow] names a causal flow ({!Sim.Trace.flows_on}), a
    ["pfs.log"] step is recorded at entry and the flow is threaded
    through any seal into the RAID and disk layers. *)

val read :
  t ->
  fid ->
  off:int ->
  len:int ->
  k:((bytes option, error) result -> unit) ->
  unit
(** Read back a range.  Bytes are returned when the RAID stores data
    ([Some], holes reading as zeros); timing is exercised either way. *)

val read_flow :
  t ->
  fid ->
  off:int ->
  len:int ->
  flow:int ->
  k:((bytes option, error) result -> unit) ->
  unit
(** Like {!read}, carrying a causal flow id ({!Sim.Trace.no_flow} for
    none): ["pfs.log"] at entry, one ["pfs.cache"] step when any byte
    is served from an open segment buffer, and ["pfs.raid"] /
    ["pfs.disk"] steps from the layers below for sealed extents. *)

val peek : t -> fid -> off:int -> len:int -> bytes option
(** Read a range without disk activity or simulated time — the path a
    buffer-cache hit takes.  [None] unless the RAID stores data and
    every needed segment is readable. *)

val delete : t -> fid -> k:((unit, error) result -> unit) -> unit
(** All of the file's data and its pnode become garbage. *)

val sync : t -> k:((unit, error) result -> unit) -> unit
(** Seal the open segments (partially filled space is recorded as
    garbage so the cleaner can recover it). *)

(** {1 Checkpoint and crash recovery}

    The on-disk state is consistent up to the last sealed segment:
    sealing writes the segment (with its summary) and every metadata
    update travels through the log as a pnode append.  Recovery
    restores the state as of the last seal or explicit checkpoint —
    whatever sat only in the open segment buffers is lost, which is
    precisely the window the client agent's buffering (and the UPS)
    exists to cover.

    The log keeps that recovery point as an undo journal: every change
    to the segment table, the pnodes and the allocators since the last
    seal records the value it overwrote.  A seal or checkpoint drops
    the journal, so it costs O(1) whatever the size of the file
    system; a recovery replays it newest first, so it costs
    O(changes since the recovery point).  Before the first seal the
    journal reaches back to {!create}, and a crash leaves an empty file
    system.

    The {!Garbage} file and the statistics are not rolled back.
    Garbage entries written after the recovery point survive the
    crash; the cleaner re-checks every extent's liveness before moving
    it, so such an entry costs at most a wasted move.

    A seal records the whole mapping wherever the operation that
    sealed had got to.  A write that spans a seal is recorded before
    its new extents are mapped, so a crash right after it is
    acknowledged returns the file without them; and with continuous
    files, a seal of one open segment can record a file mapped into the
    other open segment, which the crash recycles. *)

val checkpoint : t -> k:((unit, error) result -> unit) -> unit
(** Seal the open segments and record a recovery point (one extra
    checkpoint-region write). *)

val crash_and_recover : t -> k:(lost_bytes:int -> unit) -> unit
(** Lose the volatile state — the open segment buffers, and every
    metadata change since the last seal, checkpoint or recovery, which
    the journal undoes — then reopen fresh segments; [k] reports how
    many buffered bytes vanished.  The recovered state is itself a
    recovery point: a second crash returns to it.  Note the LFS quirk:
    a delete performed after the last seal is also rolled back — the
    file returns. *)

(** {1 Segment bookkeeping (used by the cleaners)} *)

val total_segments : t -> int
(** Segments ever opened (the size of the segment table). *)

val free_segments : t -> int
val segment_live : t -> int -> int
(** Live bytes in a segment. *)

val segment_sealed : t -> int -> bool

val clean_segment : t -> int -> k:((int, error) result -> unit) -> unit
(** Move every live byte of a sealed segment to the head of the log and
    free it.  Returns the number of bytes moved.  Cleaning a segment
    that is open or already free is an error ([Invalid_argument]). *)

(** {1 Extent map (used by the replication directory)} *)

val file_extents : t -> fid -> (int * int * int * int) list
(** The file's live extents as [(foff, seg, soff, len)], sorted by file
    offset — the map a seal-time segment copy needs to mirror a file
    onto another server.  Raises [Not_found] for unknown files. *)

val file_sealed : t -> fid -> bool
(** [true] when every live extent of the file sits in a sealed segment
    — the precondition for replicating it: sealed segments are
    immutable, so a copy taken afterwards can never be dirtied by a
    write (writes only append to {e open} segments and bump the file's
    version at the directory).  Raises [Not_found] for unknown
    files. *)

(** {1 Statistics} *)

val live_bytes : t -> int
val garbage_bytes_created : t -> int
val metadata_writes : t -> int
