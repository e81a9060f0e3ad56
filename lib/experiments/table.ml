type t = {
  id : string;
  title : string;
  claim : string;
  columns : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~claim ~columns ?(notes = []) rows =
  { id; title; claim; columns; rows; notes }

let cell_f v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.3f" v

let cell_time_us us =
  if us < 1000.0 then Printf.sprintf "%.1fus" us
  else if us < 1.0e6 then Printf.sprintf "%.2fms" (us /. 1e3)
  else Printf.sprintf "%.3fs" (us /. 1e6)

let wrap width text =
  let words = String.split_on_char ' ' text in
  let lines, last =
    List.fold_left
      (fun (lines, cur) w ->
        if cur = "" then (lines, w)
        else if String.length cur + 1 + String.length w <= width then
          (lines, cur ^ " " ^ w)
        else (cur :: lines, w))
      ([], "") words
  in
  List.rev (if last = "" then lines else last :: lines)

let pp fmt t =
  let all = t.columns :: t.rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols then widths.(i) <- Int.max widths.(i) (String.length cell))
        row)
    all;
  let total = Array.fold_left ( + ) 0 widths + (3 * (ncols - 1)) in
  let rule c = String.make (Int.max total 40) c in
  Format.fprintf fmt "@[<v>%s@,%s: %s@," (rule '=') t.id t.title;
  List.iter (fun l -> Format.fprintf fmt "  %s@," l) (wrap 74 ("Claim: " ^ t.claim));
  Format.fprintf fmt "%s@," (rule '-');
  let print_row row =
    List.iteri
      (fun i cell ->
        let pad = widths.(i) - String.length cell in
        if i > 0 then Format.fprintf fmt " | ";
        Format.fprintf fmt "%s%s" cell (String.make (Int.max 0 pad) ' '))
      row;
    Format.fprintf fmt "@,"
  in
  print_row t.columns;
  Format.fprintf fmt "%s@," (rule '-');
  List.iter print_row t.rows;
  if t.notes <> [] then begin
    Format.fprintf fmt "%s@," (rule '-');
    List.iter
      (fun n -> List.iter (fun l -> Format.fprintf fmt "  %s@," l) (wrap 74 n))
      t.notes
  end;
  Format.fprintf fmt "%s@]" (rule '=')
