(* Simulated-outcome digests and the committed golden table.

   A workload records its outcome as labelled integers (counts,
   simulated-ns latency folds, per-site frame digests); the digest is
   the MD5 of that record.  Host timings never enter it, so the same
   seed must give the same digest on every iteration, traced or not,
   and on every commit that does not change simulated behaviour. *)

type t = Buffer.t

let create () = Buffer.create 512

let int t label v =
  Buffer.add_string t label;
  Buffer.add_char t '=';
  Buffer.add_string t (string_of_int v);
  Buffer.add_char t ';'

(* Order-sensitive fold of a stream of values, e.g. the simulated
   completion instants of every read in completion order. *)
let fold h v = ((h * 1_000_003) + v) land max_int

let record t = Buffer.contents t
let digest_of_record r = Digest.to_hex (Digest.string r)
let digest t = digest_of_record (record t)

(* Golden table: one "workload seed digest" line per entry; '#' starts
   a comment line. *)
let load_golden path =
  let ic = open_in path in
  let tbl = Hashtbl.create 64 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ w; s; d ] -> Hashtbl.replace tbl (w, int_of_string s) d
         | _ -> failwith ("bad golden line: " ^ line)
     done
   with End_of_file -> close_in ic);
  tbl

type check = Match | Mismatch of string | Unpinned

let check tbl ~workload ~seed digest =
  match Hashtbl.find_opt tbl (workload, seed) with
  | Some d when d = digest -> Match
  | Some d -> Mismatch d
  | None -> Unpinned
