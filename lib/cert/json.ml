type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- writers ---- *)

let hex_digits = "0123456789abcdef"

(* Runs of bytes that need no escape are copied as one substring. *)
let add_string b s =
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
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b i =
  if i >= 0 && i < 10 then Buffer.add_char b (Char.unsafe_chr (48 + i))
  else begin
    if i < 0 then Buffer.add_char b '-';
    add_digits b (if i > 0 then -i else i)
  end

let add_float b f =
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
  else Buffer.add_string b "null"

let add_list add_item b = function
  | [] -> Buffer.add_string b "[]"
  | x :: xs ->
      Buffer.add_char b '[';
      add_item b x;
      List.iter
        (fun x ->
          Buffer.add_char b ',';
          add_item b x)
        xs;
      Buffer.add_char b ']'

let add_key b k =
  add_string b k;
  Buffer.add_char b ':'

let add_member b k =
  Buffer.add_char b ',';
  add_key b k

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f -> add_float b f
  | Str s -> add_string b s
  | List vs -> add_list add b vs
  | Obj [] -> Buffer.add_string b "{}"
  | Obj ((k, v) :: fs) ->
      Buffer.add_char b '{';
      add_key b k;
      add b v;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b ',';
          add_key b k;
          add b v)
        fs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* ---- the reader ---- *)

exception Bad of string

type reader = { s : string; n : int; mutable pos : int; mutable ill : bool }

let fail r msg = raise (Bad (Printf.sprintf "%s at offset %d" msg r.pos))
let at r c = r.pos < r.n && String.unsafe_get r.s r.pos = c

let rec skip_ws r =
  if r.pos < r.n then
    match String.unsafe_get r.s r.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        r.pos <- r.pos + 1;
        skip_ws r
    | _ -> ()

let expect r c = if at r c then r.pos <- r.pos + 1 else fail r (Printf.sprintf "expected %C" c)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* The first byte of the next value; compact input takes the first test. *)
let peek r =
  if r.pos < r.n && not (is_ws (String.unsafe_get r.s r.pos)) then String.unsafe_get r.s r.pos
  else begin
    skip_ws r;
    if r.pos >= r.n then fail r "unexpected end of input";
    String.unsafe_get r.s r.pos
  end

let literal r word v =
  let l = String.length word in
  if r.pos + l <= r.n && String.sub r.s r.pos l = word then begin
    r.pos <- r.pos + l;
    v
  end
  else fail r (Printf.sprintf "expected %s" word)

let is_num_char c =
  (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'

let hex r c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail r "bad hex digit in \\u escape"

(* First index at or after [i] holding a quote or a backslash, or [n]. *)
let rec plain_end s n i =
  if i >= n then n
  else match String.unsafe_get s i with '"' | '\\' -> i | _ -> plain_end s n (i + 1)

(* Input bytes above 0x7f pass through untouched; [\uXXXX] escapes decode
   to a single byte when < 0x100 and to '?' otherwise. This is the
   general path: a string holding an escape, or an unterminated one,
   read from just after its opening quote. *)
let escaped r =
  let s = r.s and n = r.n in
  let b = Buffer.create 16 in
  let add c =
    Buffer.add_char b c;
    r.pos <- r.pos + 1
  in
  let rec loop () =
    if r.pos >= n then fail r "unterminated string"
    else
      match s.[r.pos] with
      | '"' -> r.pos <- r.pos + 1
      | '\\' ->
          r.pos <- r.pos + 1;
          (if r.pos >= n then fail r "unterminated escape"
           else
             match s.[r.pos] with
             | '"' -> add '"'
             | '\\' -> add '\\'
             | '/' -> add '/'
             | 'n' -> add '\n'
             | 'r' -> add '\r'
             | 't' -> add '\t'
             | 'b' -> add '\b'
             | 'f' -> add '\012'
             | 'u' ->
                 if r.pos + 4 >= n then fail r "truncated \\u escape";
                 let v =
                   (hex r s.[r.pos + 1] lsl 12)
                   lor (hex r s.[r.pos + 2] lsl 8)
                   lor (hex r s.[r.pos + 3] lsl 4)
                   lor hex r s.[r.pos + 4]
                 in
                 Buffer.add_char b (if v < 0x100 then Char.chr v else '?');
                 r.pos <- r.pos + 5
             | c -> fail r (Printf.sprintf "bad escape \\%c" c));
          loop ()
      | _ ->
          let stop = plain_end s n r.pos in
          Buffer.add_substring b s r.pos (stop - r.pos);
          r.pos <- stop;
          loop ()
  in
  loop ();
  Buffer.contents b

(* An escape-free string is one [String.sub]; any other takes
   [escaped], so values and error messages do not depend on which. *)
let string r =
  expect r '"';
  let stop = plain_end r.s r.n r.pos in
  if stop < r.n && String.unsafe_get r.s stop = '"' then begin
    let str = String.sub r.s r.pos (stop - r.pos) in
    r.pos <- stop + 1;
    str
  end
  else escaped r

(* The general path: any run of number characters. *)
let token r =
  let start = r.pos in
  while r.pos < r.n && is_num_char r.s.[r.pos] do
    r.pos <- r.pos + 1
  done;
  let tok = String.sub r.s start (r.pos - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> begin
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail r (Printf.sprintf "bad number %S" tok)
    end

(* A plain decimal int of at most 18 digits cannot overflow and reads as
   [int_of_string] would: [plain_int] reads it and gives its value. Any
   other token it leaves unread, answering [no_int], which no such int
   equals, and takes [token]. *)
let no_int = min_int

let plain_int r =
  let s = r.s and n = r.n in
  let first = if at r '-' then r.pos + 1 else r.pos in
  let limit = if first + 18 < n then first + 18 else n in
  let stop = ref first and acc = ref 0 in
  while !stop < limit && String.unsafe_get s !stop >= '0' && String.unsafe_get s !stop <= '9' do
    acc := (!acc * 10) + (Char.code (String.unsafe_get s !stop) - 48);
    incr stop
  done;
  let stop = !stop in
  if stop > first && not (stop < n && is_num_char (String.unsafe_get s stop)) then begin
    let negative = first > r.pos in
    r.pos <- stop;
    if negative then - !acc else !acc
  end
  else no_int

let number r =
  let i = plain_int r in
  if i <> no_int then Int i else token r

(* Arrays and objects whose opening bracket is at [r.pos]: [opens] reads
   it and answers whether an element follows; after an element,
   [continues] reads a comma ([true]) or the closing bracket. Elements
   are read in order, one cons each. *)
let opens r close =
  r.pos <- r.pos + 1;
  skip_ws r;
  if at r close then begin
    r.pos <- r.pos + 1;
    false
  end
  else true

(* Compact input has no whitespace: a comma right here is the common case. *)
let rec continues r close =
  if at r ',' then begin
    r.pos <- r.pos + 1;
    true
  end
  else if r.pos < r.n && is_ws (String.unsafe_get r.s r.pos) then begin
    skip_ws r;
    continues r close
  end
  else begin
    expect r close;
    false
  end

let[@tail_mod_cons] rec items_after item r =
  if continues r ']' then
    let x = item r in
    x :: items_after item r
  else []

let items item r =
  if opens r ']' then
    let x = item r in
    x :: items_after item r
  else []

let key r =
  skip_ws r;
  let k = string r in
  skip_ws r;
  expect r ':';
  k

let[@tail_mod_cons] rec members_after item r =
  if continues r '}' then
    let k = key r in
    let v = item r in
    (k, v) :: members_after item r
  else []

let members item r =
  if opens r '}' then
    let k = key r in
    let v = item r in
    (k, v) :: members_after item r
  else []

let rec value r =
  match peek r with
  | '"' -> Str (string r)
  | 'n' -> literal r "null" Null
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | '[' -> List (items value r)
  | '{' -> Obj (members value r)
  | _ -> number r

let read s f =
  let r = { s; n = String.length s; pos = 0; ill = false } in
  match f r with
  | v ->
      skip_ws r;
      if r.pos <> r.n then Error (Printf.sprintf "trailing garbage at offset %d" r.pos) else Ok v
  | exception Bad msg -> Error msg

let parse s = read s value

(* ---- typed reading ---- *)

let skip r = ignore (value r)
let ill r = r.ill <- true

let mismatch r =
  skip r;
  ill r

let int r =
  match peek r with
  | '"' | 'n' | 't' | 'f' | '[' | '{' ->
      mismatch r;
      0
  | _ -> (
      let i = plain_int r in
      if i <> no_int then i
      else
        match token r with
        | Int i -> i
        | _ ->
            ill r;
            0)

let float r =
  match peek r with
  | '"' | 'n' | 't' | 'f' | '[' | '{' ->
      mismatch r;
      0.
  | _ -> ( match number r with Int i -> float_of_int i | Float f -> f | _ -> 0.)

let str r =
  if peek r = '"' then string r
  else begin
    mismatch r;
    ""
  end

let bool r =
  match peek r with
  | 't' -> literal r "true" true
  | 'f' -> literal r "false" false
  | _ ->
      mismatch r;
      false

let null r = peek r = 'n' && literal r "null" true
let nullable item r = if null r then None else Some (item r)

exception Short

let next r = if not (continues r ']') then raise_notrace Short

(* [Short] leaves the array read: [next] raises it only after the [\]]. *)
let tuple dummy item r =
  if peek r <> '[' then begin
    mismatch r;
    dummy
  end
  else
    match if opens r ']' then item r else raise_notrace Short with
    | v ->
        if continues r ']' then begin
          ill r;
          skip r;
          while continues r ']' do
            skip r
          done
        end;
        v
    | exception Short ->
        ill r;
        dummy

let list item r =
  if peek r = '[' then items item r
  else begin
    mismatch r;
    []
  end

let assoc item r =
  if peek r = '{' then members item r
  else begin
    mismatch r;
    []
  end

let fields r f =
  if peek r = '{' then begin
    if opens r '}' then begin
      f (key r);
      while continues r '}' do
        f (key r)
      done
    end
  end
  else skip r

type 'a slot = Absent | Ill | Got of 'a

(* The flag is clear again afterwards, so a record read inside a member
   (a reply's certificate) does not mark the member holding it. *)
let fill r cell item =
  match !cell with
  | Absent ->
      r.ill <- false;
      let v = item r in
      cell := if r.ill then Ill else Got v;
      r.ill <- false
  | Ill | Got _ -> skip r

let spanned item r =
  ignore (peek r);
  let start = r.pos in
  let v = item r in
  (v, String.sub r.s start (r.pos - start))

(* ---- tree accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
