(* 4-ary implicit min-heap over parallel arrays.

   The previous implementation stored one boxed record per entry and
   swapped whole records on every sift step, so each comparison chased
   two pointers and each level of the (binary) tree cost a cache line.
   Here keys and sequence numbers live in plain [int array]s — arrays
   of immediates, no per-element indirection — and values in a third
   parallel array.  A 4-ary layout halves the tree depth, and sifting
   moves the displaced element through a "hole" instead of swapping, so
   each level is one read and one write per array.

   Keys are native [int]s (the engine passes simulated nanoseconds,
   which is what {!Time.t} is), so no entry boxes anything. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; len = 0 }
let length h = h.len
let is_empty h = h.len = 0

(* Slots at index >= len are never read, so the value slot may hold an
   immediate instead of a ['a]; storing one releases whatever value
   (and closure) the slot used to reference. *)
let hole : 'a. unit -> 'a = fun () -> Obj.magic 0

let grow h =
  let cap = Array.length h.keys in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nkeys = Array.make ncap 0 and nseqs = Array.make ncap 0 in
    let nvals = Array.make ncap (hole ()) in
    Array.blit h.keys 0 nkeys 0 h.len;
    Array.blit h.seqs 0 nseqs 0 h.len;
    Array.blit h.vals 0 nvals 0 h.len;
    h.keys <- nkeys;
    h.seqs <- nseqs;
    h.vals <- nvals
  end

let push h ~key:k ~seq value =
  grow h;
  (* Sift up through a hole: parents move down until the insertion
     point is found, then the new element is written exactly once. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    let pk = h.keys.(p) in
    if k < pk || (k = pk && seq < h.seqs.(p)) then begin
      h.keys.(!i) <- pk;
      h.seqs.(!i) <- h.seqs.(p);
      h.vals.(!i) <- h.vals.(p);
      i := p
    end
    else continue := false
  done;
  h.keys.(!i) <- k;
  h.seqs.(!i) <- seq;
  h.vals.(!i) <- value

let min_key h = if h.len = 0 then max_int else h.keys.(0)

(* The allocation-free extraction path: the caller reads the key with
   {!min_key} first (the engine needs it to advance the clock), so
   only the value crosses the interface. *)
let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty";
  let top_v = h.vals.(0) in
  h.len <- h.len - 1;
  let n = h.len in
  (* Clear the vacated slot: without this the popped value — or a
     stale alias of one popped later — stays reachable from the
     array until the slot is overwritten by a future push. *)
  let lk = h.keys.(n) and ls = h.seqs.(n) in
  let lv = h.vals.(n) in
  h.vals.(n) <- hole ();
  if n > 0 then begin
    (* Sift the former last element down through a hole from the
       root: at each level pick the smallest of up to 4 children. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c0 = (4 * !i) + 1 in
      if c0 >= n then continue := false
      else begin
        let last = Stdlib.min (c0 + 3) (n - 1) in
        let m = ref c0 in
        let mk = ref h.keys.(c0) and ms = ref h.seqs.(c0) in
        for c = c0 + 1 to last do
          let ck = h.keys.(c) in
          if ck < !mk || (ck = !mk && h.seqs.(c) < !ms) then begin
            m := c;
            mk := ck;
            ms := h.seqs.(c)
          end
        done;
        if !mk < lk || (!mk = lk && !ms < ls) then begin
          h.keys.(!i) <- !mk;
          h.seqs.(!i) <- !ms;
          h.vals.(!i) <- h.vals.(!m);
          i := !m
        end
        else continue := false
      end
    done;
    h.keys.(!i) <- lk;
    h.seqs.(!i) <- ls;
    h.vals.(!i) <- lv
  end;
  top_v

let clear h =
  h.keys <- [||];
  h.seqs <- [||];
  h.vals <- [||];
  h.len <- 0
