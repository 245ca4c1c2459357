type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let hex_digits = "0123456789abcdef"

(* Runs of bytes that need no escape are copied as one substring. *)
let buf_add_escaped b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !run then Buffer.add_substring b s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex_digits.[Char.code c lsr 4];
          Buffer.add_char b hex_digits.[Char.code c land 15]);
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring b s !run (n - !run);
  Buffer.add_char b '"'

(* The bytes of [string_of_int i], written digit by digit. Digits come
   from the non-positive value, whose range also holds [min_int]. *)
let buf_add_int b i =
  if i >= 0 && i < 10 then Buffer.add_char b (Char.unsafe_chr (48 + i))
  else begin
    if i < 0 then Buffer.add_char b '-';
    let rec go n =
      if n <= -10 then go (n / 10);
      Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
    in
    go (if i > 0 then -i else i)
  end

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> buf_add_int b i
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
      else Buffer.add_string b "null"
  | Str s -> buf_add_escaped b s
  | List [] -> Buffer.add_string b "[]"
  | List (v :: vs) ->
      Buffer.add_char b '[';
      emit b v;
      emit_items b vs;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj (f :: fs) ->
      Buffer.add_char b '{';
      emit_field b f;
      emit_fields b fs;
      Buffer.add_char b '}'

and emit_items b = function
  | [] -> ()
  | v :: vs ->
      Buffer.add_char b ',';
      emit b v;
      emit_items b vs

and emit_field b (k, v) =
  buf_add_escaped b k;
  Buffer.add_char b ':';
  emit b v

and emit_fields b = function
  | [] -> ()
  | f :: fs ->
      Buffer.add_char b ',';
      emit_field b f;
      emit_fields b fs

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

exception Bad of string

let is_num_char c =
  (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'

(* Minimal recursive-descent parser, sufficient for re-reading what
   [to_string] emits (journal lines, job/reply frames). Input bytes above
   0x7f pass through untouched; [\uXXXX] escapes decode to a single byte
   when < 0x100 and to '?' otherwise. Escape-free strings and plain
   decimal ints take a direct path; everything else goes through the
   general one, so values and error messages do not depend on which. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  (* First index at or after [i] holding a quote or a backslash, or [n]. *)
  let rec plain_end i =
    if i >= n then n
    else match String.unsafe_get s i with '"' | '\\' -> i | _ -> plain_end (i + 1)
  in
  (* The general path: a string holding an escape, or an unterminated
     one, read from just after its opening quote. *)
  let parse_escaped () =
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'b' -> Buffer.add_char b '\b'; incr pos
               | 'f' -> Buffer.add_char b '\012'; incr pos
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let v =
                     (hex s.[!pos + 1] lsl 12)
                     lor (hex s.[!pos + 2] lsl 8)
                     lor (hex s.[!pos + 3] lsl 4)
                     lor hex s.[!pos + 4]
                   in
                   Buffer.add_char b (if v < 0x100 then Char.chr v else '?');
                   pos := !pos + 5
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            loop ()
        | _ ->
            let stop = plain_end !pos in
            Buffer.add_substring b s !pos (stop - !pos);
            pos := stop;
            loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_string () =
    expect '"';
    let stop = plain_end !pos in
    if stop < n && String.unsafe_get s stop = '"' then begin
      let str = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      str
    end
    else parse_escaped ()
  in
  (* The general path: any run of number characters. *)
  let parse_token () =
    let start = !pos in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> begin
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok)
      end
  in
  (* A plain decimal int of at most 18 digits cannot overflow and reads as
     [int_of_string] would; any other token takes the general path. *)
  let parse_number () =
    let first = if at '-' then !pos + 1 else !pos in
    let limit = min n (first + 18) in
    let stop = ref first and acc = ref 0 in
    while !stop < limit && String.unsafe_get s !stop >= '0' && String.unsafe_get s !stop <= '9' do
      acc := (!acc * 10) + (Char.code (String.unsafe_get s !stop) - 48);
      incr stop
    done;
    let stop = !stop in
    if stop > first && not (stop < n && is_num_char (String.unsafe_get s stop)) then begin
      let negative = first > !pos in
      pos := stop;
      Int (if negative then - !acc else !acc)
    end
    else parse_token ()
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '"' -> Str (parse_string ())
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else
          let v = parse_value () in
          List (v :: items_after ())
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else
          let f = parse_field () in
          Obj (f :: fields_after ())
    | _ -> parse_number ()
  (* Lists and objects are built in order, one cons per element. *)
  and[@tail_mod_cons] items_after () =
    skip_ws ();
    if at ',' then begin
      incr pos;
      let v = parse_value () in
      v :: items_after ()
    end
    else begin
      expect ']';
      []
    end
  and parse_field () =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    let v = parse_value () in
    (k, v)
  and[@tail_mod_cons] fields_after () =
    skip_ws ();
    if at ',' then begin
      incr pos;
      let f = parse_field () in
      f :: fields_after ()
    end
    else begin
      expect '}';
      []
    end
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
