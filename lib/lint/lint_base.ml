type finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
  path : string list;
}

exception Lint_error of string * int * string

let errorf file line fmt =
  Printf.ksprintf (fun msg -> raise (Lint_error (file, line, msg))) fmt

let error_to_string (file, line, msg) = Printf.sprintf "%s:%d: %s" file line msg

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.message;
  match f.path with
  | [] -> ()
  | p -> Format.fprintf ppf " (via %s)" (String.concat " -> " p)

let finding_to_string f = Format.asprintf "%a" pp_finding f

let compare_finding a b =
  compare (a.file, a.line, a.rule, a.message, a.path) (b.file, b.line, b.rule, b.message, b.path)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_op_char c = String.contains "!$%&*+-./:<=>?@^|~" c

(* Replace comments, string literals and character literals with spaces,
   preserving newlines so that reported line numbers stay exact. OCaml
   lexes string literals inside comments (an unmatched quote in a comment
   is a syntax error), so we mirror that to keep "*)" inside quoted text
   from closing a comment early. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  (* Skip a string literal starting at the opening quote; returns the index
     one past the closing quote (or [n] if unterminated). *)
  let skip_string start =
    let j = ref (start + 1) in
    let stop = ref false in
    while (not !stop) && !j < n do
      (match src.[!j] with
      | '\\' -> incr j (* skip the escaped character too *)
      | '"' -> stop := true
      | _ -> ());
      incr j
    done;
    !j
  in
  (* Skip a quoted-string literal {id|...|id} starting at '{'; returns the
     index one past the closing '}' or [start + 1] if it is not one. *)
  let skip_quoted_string start =
    let j = ref (start + 1) in
    while !j < n && ((src.[!j] >= 'a' && src.[!j] <= 'z') || src.[!j] = '_') do
      incr j
    done;
    if !j >= n || src.[!j] <> '|' then start + 1
    else begin
      let id = String.sub src (start + 1) (!j - start - 1) in
      let closing = "|" ^ id ^ "}" in
      let cl = String.length closing in
      let k = ref (!j + 1) in
      let stop = ref false in
      while (not !stop) && !k + cl <= n do
        if String.sub src !k cl = closing then stop := true else incr k
      done;
      if !stop then !k + cl else n
    end
  in
  while !i < n do
    let c = src.[!i] in
    if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      (* Comment: blank it out, tracking nesting and embedded strings. *)
      let depth = ref 1 in
      blank !i;
      blank (!i + 1);
      let j = ref (!i + 2) in
      while !depth > 0 && !j < n do
        if src.[!j] = '(' && !j + 1 < n && src.[!j + 1] = '*' then begin
          incr depth;
          blank !j;
          blank (!j + 1);
          j := !j + 2
        end
        else if src.[!j] = '*' && !j + 1 < n && src.[!j + 1] = ')' then begin
          decr depth;
          blank !j;
          blank (!j + 1);
          j := !j + 2
        end
        else if src.[!j] = '"' then begin
          let e = skip_string !j in
          for k = !j to min (e - 1) (n - 1) do
            blank k
          done;
          j := e
        end
        else begin
          blank !j;
          incr j
        end
      done;
      i := !j
    end
    else if c = '"' then begin
      let e = skip_string !i in
      for k = !i to min (e - 1) (n - 1) do
        blank k
      done;
      i := e
    end
    else if c = '{' then begin
      let e = skip_quoted_string !i in
      if e > !i + 1 then
        for k = !i to min (e - 1) (n - 1) do
          blank k
        done;
      i := max e (!i + 1)
    end
    else if
      c = '\''
      && (!i = 0 || not (is_ident_char src.[!i - 1]))
      && !i + 1 < n
    then begin
      (* Character literal vs. type variable: 'x' / '\n' are literals; 'a in
         [val f : 'a -> 'a] is not. A quote right after an identifier char
         (x', flow') extends the identifier and is skipped above. *)
      if src.[!i + 1] = '\\' then begin
        let j = ref (!i + 2) in
        while !j < n && src.[!j] <> '\'' do
          incr j
        done;
        for k = !i to min !j (n - 1) do
          blank k
        done;
        i := !j + 1
      end
      else if !i + 2 < n && src.[!i + 2] = '\'' then begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        i := !i + 3
      end
      else incr i
    end
    else incr i
  done;
  Bytes.to_string out

type token = { text : string; line : int; op : bool }

(* The combined token stream of a stripped source: longest dotted
   identifiers ([Format.pp_print_string] is one token, so it can never be
   confused with a banned [print_string]) interleaved, in source order,
   with maximal runs of operator characters. Adjacency in this stream is
   what the context-sensitive rules (assert false, with _, raise E) key
   on. *)
let lex stripped =
  let n = String.length stripped in
  let acc = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    let c = stripped.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if is_ident_start c then begin
      let start = !i in
      let j = ref !i in
      while !j < n && is_ident_char stripped.[!j] do
        incr j
      done;
      (* Extend across '.' when followed by another identifier. *)
      let continue = ref true in
      while !continue do
        if !j + 1 < n && stripped.[!j] = '.' && is_ident_start stripped.[!j + 1] then begin
          j := !j + 1;
          while !j < n && is_ident_char stripped.[!j] do
            incr j
          done
        end
        else continue := false
      done;
      acc := { text = String.sub stripped start (!j - start); line = !line; op = false } :: !acc;
      i := !j
    end
    else if is_op_char c then begin
      let start = !i in
      let j = ref !i in
      while !j < n && is_op_char stripped.[!j] do
        incr j
      done;
      acc := { text = String.sub stripped start (!j - start); line = !line; op = true } :: !acc;
      i := !j
    end
    else incr i
  done;
  List.rev !acc

let tokens stripped =
  List.filter_map (fun t -> if t.op then None else Some (t.text, t.line)) (lex stripped)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> raise (Lint_error (path, 0, "cannot read file: " ^ msg))
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

(* Every .ml under [dir], recursively, in a deterministic order. An
   unreadable directory is a hard error ({!Lint_error}), never an empty
   clean run: a lint that silently scans nothing certifies nothing. *)
let rec ml_files dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> raise (Lint_error (dir, 0, "cannot scan directory: " ^ msg))
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then acc @ ml_files path
          else if Filename.check_suffix entry ".ml" then acc @ [ path ]
          else acc)
        [] entries

let capitalize = String.capitalize_ascii

let module_of_file path = capitalize (Filename.remove_extension (Filename.basename path))

let relativize ~root path =
  let prefix = if String.length root > 0 && root.[String.length root - 1] = '/' then root
    else root ^ Filename.dir_sep in
  if String.starts_with ~prefix path then
    String.sub path (String.length prefix) (String.length path - String.length prefix)
  else path
