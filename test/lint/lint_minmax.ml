(* Fail on polymorphic [max]/[min] in library code.

   [Stdlib.max] and [Stdlib.min] compare through [compare_val], a C
   call per use even when both arguments are ints; on a per-cell or
   per-event loop that call costs more than the loop body.  Library
   code uses [Int.max]/[Int.min], [Sim.Time.max]/[Sim.Time.min], or a
   float-annotated [if a >= b then a else b].

   Usage: lint_minmax FILE.ml...  Parses each file with the compiler's
   own parser and prints [file:line: ...] for every expression that
   names [max], [min], [Stdlib.max] or [Stdlib.min] (applied or passed
   as a value), then exits 1 if there is any.  Definitions, labels,
   record fields and other modules' [max]/[min] such as [Time.max] are
   not expressions of that name, so they pass.  The check sees names,
   not bindings: a use of a local variable called [max] or [min] is
   reported too, so give such a variable another name. *)

let polymorphic : Longident.t -> string option = function
  | Lident (("max" | "min") as f) -> Some f
  | Ldot (Lident "Stdlib", (("max" | "min") as f)) -> Some ("Stdlib." ^ f)
  | _ -> None

(* Report paths relative to the project root. *)
let rec shown p =
  if String.length p > 3 && String.sub p 0 3 = "../" then
    shown (String.sub p 3 (String.length p - 3))
  else p

let scan path =
  let ic = open_in_bin path in
  let lexbuf = Lexing.from_channel ic in
  Location.init lexbuf path;
  let ast = Parse.implementation lexbuf in
  close_in ic;
  let found = ref 0 in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        match polymorphic txt with
        | Some name ->
            incr found;
            Printf.printf
              "%s:%d: %s (use Int.max/Int.min, Time.max/Time.min, or a \
               typed comparison)\n"
              (shown path) loc.loc_start.pos_lnum name
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it ast;
  !found

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  match List.fold_left (fun acc f -> acc + scan f) 0 files with
  | 0 -> ()
  | found ->
      Printf.printf "%d polymorphic max/min use%s in lib/\n" found
        (if found = 1 then "" else "s");
      exit 1
  | exception exn ->
      Location.report_exception Format.err_formatter exn;
      exit 2
