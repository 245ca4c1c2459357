(* The certificate conformance corpus and checker-hardening suite.

   Three layers of assurance that the independent checker is neither
   credulous nor paranoid:

   - the committed corpus under certs/: every accept_*.jsonl line (real
     CLI output across all solver paths) must check, every
     reject_*.jsonl line (a hand-tampered certificate per failure mode
     named in the issue) must be refused;
   - programmatic tampers: solver-produced replies with their
     certificates stripped, swapped, or value-shifted must be refused;
   - a seeded byte-flip fuzzer: >= 200 single-byte mutations inside the
     cert block of corpus lines, every one refused — a mutated
     certificate that still checks would be a soundness hole. *)

open Resilience
module Ser = Graphdb.Serialize
module Proto = Cert.Proto
module Certificate = Cert.Certificate
module Checker = Cert.Checker

let check = Alcotest.(check bool)

(* ---- fixtures: replies produced by the real solver stack ---- *)

let easy_db = "s a m\nm a t\n"
let mix_db = "s a m\nm b t\ns b u\nu a t\n"
let submod_db = "s a m\nm b n\nn c t\ns b u\nu e t\n"

(* The aa gadget on K6 (the vertex-cover reduction of Definition 4.5):
   large enough that a 500-step budget settles it as bounded. *)
let hard_db =
  let g = Graphs.Ugraph.complete 6 in
  let pre, _ = Gadgets.gadget_aa () in
  Ser.to_string (Gadgets.encode pre g)

let job ?(id = "j") ?(db = easy_db) ?(query = "aa") ?steps () =
  {
    Proto.id;
    db;
    query;
    budget = { Proto.deadline = None; steps; memo_cap = None };
    faults = Some "off";
    deadline_ms = None;
    priority = Proto.default_priority;
    trace = None;
  }

let solve ?id ?db ?steps query = Runner.run_job_locally (job ?id ?db ?steps ~query ())

let ok_or_msg = function Ok _ -> "ok" | Error e -> e

(* Every solver path's reply — local cut, BCL cut, hitting-set bounds,
   submodular opaque, trivial — carries a certificate that re-checks,
   and the error reply (no certificate) checks too. *)
let test_generated_replies_check () =
  List.iter
    (fun (label, r) ->
      Alcotest.(check string)
        (label ^ " checks") "ok"
        (ok_or_msg (Checker.check_reply r)))
    [
      ("local mincut", solve ~db:mix_db "ab");
      ("bcl mincut", solve ~db:mix_db "ab|ba");
      ("hitting set", solve "aa");
      ("submodular", solve ~db:submod_db "abc|be");
      ("trivial epsilon", solve "a*");
      ("error reply", solve "((");
    ]

let test_bounded_reply_checks () =
  let r = solve ~id:"b" ~db:hard_db ~steps:500 "aa" in
  (match r.Proto.verdict with
  | Proto.V_bounded _ -> ()
  | v -> Alcotest.failf "expected a bounded verdict, got %s" (Proto.verdict_name v));
  Alcotest.(check string) "bounded reply checks" "ok" (ok_or_msg (Checker.check_reply r))

(* ---- the committed corpus ---- *)

(* Under `dune runtest` the cwd is the test directory itself; under
   `dune exec` it is the project root. *)
let corpus_dir =
  if Sys.file_exists "certs" then "certs" else Filename.concat "test" "certs"

let corpus_files prefix =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
         && Filename.check_suffix f ".jsonl")
  |> List.sort compare
  |> List.map (Filename.concat corpus_dir)

let lines_of file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")

let test_corpus_accepts () =
  let files = corpus_files "accept_" in
  check "accept corpus present" true (List.length files >= 4);
  List.iter
    (fun file ->
      List.iteri
        (fun i line ->
          match Checker.check_line line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s:%d rejected: %s" file (i + 1) e)
        (lines_of file))
    files

let test_corpus_rejects () =
  let files = corpus_files "reject_" in
  check "reject corpus present" true (List.length files >= 6);
  List.iter
    (fun file ->
      List.iteri
        (fun i line ->
          match Checker.check_line line with
          | Error _ -> ()
          | Ok what ->
              Alcotest.failf "%s:%d accepted a tampered %s line" file (i + 1) what)
        (lines_of file))
    files

(* ---- programmatic tampers ---- *)

let shift_value = function
  | Cert.Value.Finite n -> Cert.Value.Finite (n + 1)
  | Cert.Value.Infinite -> Cert.Value.Finite 0

let test_programmatic_tampers () =
  let cut_reply = solve ~db:mix_db "ab" in
  let bounds_reply = solve "aa" in
  let refuse label r =
    match Checker.check_reply r with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "checker accepted %s" label
  in
  refuse "a stripped certificate" { cut_reply with Proto.cert = None };
  refuse "a cut certificate on a hitting-set reply"
    { bounds_reply with Proto.cert = cut_reply.Proto.cert };
  refuse "a bounds certificate on a mincut reply"
    { cut_reply with Proto.cert = bounds_reply.Proto.cert };
  (match cut_reply.Proto.verdict with
  | Proto.V_exact { value; algorithm; witness } ->
      refuse "a shifted exact value"
        {
          cut_reply with
          Proto.verdict = Proto.V_exact { value = shift_value value; algorithm; witness };
        }
  | _ -> Alcotest.fail "local solve did not settle exactly");
  match bounds_reply.Proto.verdict with
  | Proto.V_exact { value; algorithm; witness = Some (_ :: _ as w) } ->
      refuse "a padded witness"
        {
          bounds_reply with
          Proto.verdict =
            Proto.V_exact { value; algorithm; witness = Some (w @ [ 997 ]) };
        }
  | _ -> Alcotest.fail "hitting-set solve did not settle with a witness"

(* The checker's indexed lookups keep the list semantics they replaced:
   a fact listed twice in one cover loads that cover's multiplier once
   (one fact of weight 1, cover [1; 1], dual 1.0 is feasible). *)
let test_cover_duplicates_count_once () =
  let reply cover =
    {
      (Proto.failed ~id:"d" ~kind:"x" "unused") with
      Proto.verdict =
        Proto.V_exact { value = Cert.Value.Finite 1; algorithm = "hitting-set ILP"; witness = Some [ 1 ] };
      cert =
        Some
          (Certificate.Bounds
             { fact_weights = [ (1, 1) ]; covers = Some [ cover ]; dual = Some [ 1.0 ] });
    }
  in
  Alcotest.(check string) "duplicate in a cover counts once" "ok"
    (ok_or_msg (Checker.check_reply (reply [ 1; 1 ])));
  check "an overloaded fact is still refused" true
    (Result.is_error
       (Checker.check_reply
          {
            (reply [ 1 ]) with
            Proto.cert =
              Some
                (Certificate.Bounds
                   { fact_weights = [ (1, 1) ]; covers = Some [ [ 1 ]; [ 1 ] ]; dual = Some [ 1.0; 1.0 ] });
          }))

(* Unknown schema versions must be refused outright, not half-parsed. *)
let test_unknown_version_rejected () =
  let r = solve ~db:mix_db "ab" in
  let json = Proto.reply_to_json r in
  check "current version accepts" true (Result.is_ok (Checker.check_line json));
  let prefix = "{\"v\":1," in
  let pl = String.length prefix in
  check "the v field leads the reply" true
    (String.length json > pl && String.sub json 0 pl = prefix);
  let bumped = "{\"v\":9," ^ String.sub json pl (String.length json - pl) in
  check "unknown version rejects" true (Result.is_error (Checker.check_line bumped))

(* ---- certificate JSON roundtrip ---- *)

let test_cert_roundtrip () =
  List.iter
    (fun (label, r) ->
      match r.Proto.cert with
      | None -> Alcotest.failf "%s reply carries no certificate" label
      | Some c -> (
          match Certificate.of_json (Certificate.to_json c) with
          | Error e -> Alcotest.failf "%s cert does not roundtrip: %s" label e
          | Ok c' ->
              Alcotest.(check string)
                (label ^ " roundtrips through JSON")
                (Certificate.to_json c) (Certificate.to_json c')))
    [
      ("cut", solve ~db:mix_db "ab");
      ("bounds", solve "aa");
      ("opaque", solve ~db:submod_db "abc|be");
      ("trivial", solve "a*");
    ]

(* ---- seeded byte-flip fuzzer ---- *)

(* The span of the cert object in a compact JSON line: from the opening
   brace after "cert": to its matched closing brace. The scan respects
   string literals and backslash escapes. *)
let cert_span line =
  let marker = "\"cert\":{" in
  let ml = String.length marker in
  let n = String.length line in
  let rec find i =
    if i + ml > n then None
    else if String.sub line i ml = marker then Some (i + ml - 1)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let rec close i depth in_str =
        if i >= n then None
        else
          match line.[i] with
          | '\\' when in_str -> close (i + 2) depth in_str
          | '"' -> close (i + 1) depth (not in_str)
          | '{' when not in_str -> close (i + 1) (depth + 1) in_str
          | '}' when not in_str ->
              if depth = 1 then Some (start, i) else close (i + 1) (depth - 1) in_str
          | _ -> close (i + 1) depth in_str
      in
      close start 0 false

let flip_one prng line (lo, hi) =
  let pos = lo + Invariant.Prng.int prng (hi - lo + 1) in
  let old = line.[pos] in
  let rec fresh () =
    (* printable ASCII keeps the mutation inside the JSON token
       alphabet, where a silent accept would be most plausible *)
    let c = Char.chr (32 + Invariant.Prng.int prng 95) in
    if c = old then fresh () else c
  in
  let b = Bytes.of_string line in
  Bytes.set b pos (fresh ());
  Bytes.to_string b

let test_byte_flip_fuzzer () =
  let lines =
    List.concat_map lines_of (corpus_files "accept_")
    |> List.filter (fun l -> cert_span l <> None)
  in
  check "corpus has certified lines" true (List.length lines >= 6);
  let per_line = 1 + (200 / List.length lines) in
  let mutations = ref 0 in
  List.iteri
    (fun li line ->
      let span =
        match cert_span line with Some s -> s | None -> Alcotest.fail "span vanished"
      in
      for s = 0 to per_line - 1 do
        let prng = Invariant.Prng.make ((li * 1000) + s) in
        let mutant = flip_one prng line span in
        incr mutations;
        match Checker.check_line mutant with
        | Error _ -> ()
        | Ok what ->
            Alcotest.failf
              "seed %d/%d: a byte-flipped %s certificate was accepted: %s" li s what
              mutant
      done)
    lines;
  check "at least 200 mutations exercised" true (!mutations >= 200)

(* ---- JSON codec differential ---- *)

(* The codec as it was before its emitter and parser took direct paths
   (ints as digits, escape-free runs as substrings, escape-free strings as
   one [String.sub], plain ints accumulated in place), copied verbatim as
   the oracle: every tree must emit the same bytes, and every input must
   parse to the same value or fail with the same message. Its accessors
   ([member], [to_int_opt], ...) are unused here. *)
module Oracle = struct
  [@@@warning "-32"]

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let buf_add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
      else Buffer.add_string b "null"
  | Str s -> buf_add_escaped b s
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit b v)
        vs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          buf_add_escaped b k;
          Buffer.add_char b ':';
          emit b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

exception Bad of string

(* Minimal recursive-descent parser, sufficient for re-reading what
   [to_string] emits (journal lines, job/reply frames). Input bytes above
   0x7f pass through untouched; [\uXXXX] escapes decode to a single byte
   when < 0x100 and to '?' otherwise. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
    do
      incr pos
    done
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
  let parse_string () =
    expect '"';
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
        | c -> Buffer.add_char b c; incr pos; loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
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
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
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
end

let rec to_oracle : Cert.Json.t -> Oracle.t = function
  | Cert.Json.Null -> Oracle.Null
  | Cert.Json.Bool b -> Oracle.Bool b
  | Cert.Json.Int i -> Oracle.Int i
  | Cert.Json.Float f -> Oracle.Float f
  | Cert.Json.Str s -> Oracle.Str s
  | Cert.Json.List vs -> Oracle.List (List.map to_oracle vs)
  | Cert.Json.Obj fs -> Oracle.Obj (List.map (fun (k, v) -> (k, to_oracle v)) fs)

(* Floats compare by bit pattern, so a nan or a -0.0 must match exactly. *)
let rec same_value (a : Cert.Json.t) (b : Oracle.t) =
  match (a, b) with
  | Cert.Json.Null, Oracle.Null -> true
  | Cert.Json.Bool x, Oracle.Bool y -> x = y
  | Cert.Json.Int x, Oracle.Int y -> x = y
  | Cert.Json.Float x, Oracle.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Cert.Json.Str x, Oracle.Str y -> String.equal x y
  | Cert.Json.List xs, Oracle.List ys ->
      List.length xs = List.length ys && List.for_all2 same_value xs ys
  | Cert.Json.Obj xs, Oracle.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (k', y) -> String.equal k k' && same_value x y) xs ys
  | _ -> false

let same_parse s =
  match (Cert.Json.parse s, Oracle.parse s) with
  | Ok a, Ok b -> same_value a b
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let gen_json =
  let open QCheck.Gen in
  let ints =
    oneof
      [
        oneofl [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int; min_int + 1; max_int - 1 ];
        small_signed_int;
        int;
      ]
  in
  let floats =
    oneof [ oneofl [ nan; infinity; neg_infinity; -0.0; 0.0; 0.1; -1.5; 1e300; 5e-324 ]; float ]
  in
  (* [char] draws all 256 byte values: escapes, controls and bytes above 0x7f. *)
  let bytes = string_size ~gen:char (int_bound 12) in
  let leaf =
    frequency
      [
        (1, return Cert.Json.Null);
        (1, map (fun b -> Cert.Json.Bool b) bool);
        (3, map (fun i -> Cert.Json.Int i) ints);
        (2, map (fun f -> Cert.Json.Float f) floats);
        (3, map (fun s -> Cert.Json.Str s) bytes);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun vs -> Cert.Json.List vs) (list_size (int_bound 4) (self (n / 3))));
               ( 1,
                 map
                   (fun fs -> Cert.Json.Obj fs)
                   (list_size (int_bound 4) (pair bytes (self (n / 3)))) );
             ])

let arb_json = QCheck.make ~print:Cert.Json.to_string gen_json

let prop_emit_matches_oracle =
  QCheck.Test.make ~name:"to_string emits the oracle's bytes" ~count:2000 arb_json (fun v ->
      String.equal (Cert.Json.to_string v) (Oracle.to_string (to_oracle v)))

let prop_parse_bytes_matches_oracle =
  (* Half raw bytes, half the JSON token alphabet, where the parser's
     error paths (numbers, escapes, literals, nesting) actually run. *)
  let alphabet = List.of_seq (String.to_seq "{}[]\",:0123456789-+.eE \\/ntrufalsbu\n") in
  let gen =
    QCheck.Gen.(
      string_size ~gen:(frequency [ (1, char); (3, oneofl alphabet) ]) (int_bound 24))
  in
  QCheck.Test.make ~name:"parse agrees with the oracle on random bytes" ~count:3000
    (QCheck.make ~print:String.escaped gen)
    same_parse

let prop_parse_edits_match_oracle =
  (* One-byte edits of emitted JSON: replace, delete, insert, truncate. *)
  let gen =
    QCheck.Gen.(
      let* v = gen_json in
      let s = Cert.Json.to_string v in
      let* i = int_bound (String.length s) in
      let* c = char in
      let+ kind = int_bound 3 in
      let n = String.length s in
      let j = min i (n - 1) in
      match kind with
      | 0 when n > 0 -> String.mapi (fun k x -> if k = j then c else x) s
      | 1 when n > 0 -> String.sub s 0 j ^ String.sub s (j + 1) (n - j - 1)
      | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ -> String.sub s 0 i)
  in
  QCheck.Test.make ~name:"parse agrees with the oracle on one-byte edits" ~count:3000
    (QCheck.make ~print:String.escaped gen)
    same_parse

let test_codec_edge_cases () =
  List.iter
    (fun s -> check (Printf.sprintf "parse %S agrees with the oracle" s) true (same_parse s))
    [
      "";
      "0";
      "-0";
      "007";
      "-";
      "--1";
      "+5";
      "1e5";
      "1.5";
      "-1.5e-3";
      "123456789012345678";
      "-123456789012345678";
      "1234567890123456789";
      "4611686018427387903";
      "4611686018427387904";
      "-4611686018427387904";
      "-4611686018427387905";
      "99999999999999999999";
      "12x";
      "[1,2";
      "[1,]";
      "{\"a\":1,\"a\":2}";
      "{\"a\" 1}";
      "\"abc";
      "\"abc\\";
      "\"a\\q\"";
      "\"\\u00e9\\u0041\\u2603\"";
      "\"\\u12\"";
      "\"\\u12g4\"";
      "\"tab\\tnl\\nq\\\"bs\\\\sl\\/b\\bf\\f\"";
      " null ";
      "nul";
      "tru";
      "falsey";
      "[ ]";
      "{ }";
      "x";
      "1 2";
    ];
  List.iter
    (fun v ->
      Alcotest.(check string)
        "emits the oracle's bytes" (Oracle.to_string (to_oracle v)) (Cert.Json.to_string v))
    [
      Cert.Json.Int min_int;
      Cert.Json.Int max_int;
      Cert.Json.List [ Cert.Json.Float nan; Cert.Json.Float (-0.0); Cert.Json.Float infinity ];
      Cert.Json.Obj [ (String.init 256 Char.chr, Cert.Json.Str (String.init 256 Char.chr)) ];
      Cert.Json.Obj [];
      Cert.Json.List [];
    ]

let () =
  Alcotest.run "certcheck"
    [
      ( "generated",
        [
          Alcotest.test_case "all solver paths check" `Quick test_generated_replies_check;
          Alcotest.test_case "bounded reply checks" `Quick test_bounded_reply_checks;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "accept corpus" `Quick test_corpus_accepts;
          Alcotest.test_case "reject corpus" `Quick test_corpus_rejects;
        ] );
      ( "tampering",
        [
          Alcotest.test_case "programmatic tampers" `Quick test_programmatic_tampers;
          Alcotest.test_case "unknown version" `Quick test_unknown_version_rejected;
          Alcotest.test_case "duplicate cover entries count once" `Quick
            test_cover_duplicates_count_once;
          Alcotest.test_case "cert json roundtrip" `Quick test_cert_roundtrip;
          Alcotest.test_case "byte-flip fuzzer" `Quick test_byte_flip_fuzzer;
        ] );
      ( "json codec",
        Alcotest.test_case "edge cases agree with the oracle" `Quick test_codec_edge_cases
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_emit_matches_oracle;
               prop_parse_bytes_matches_oracle;
               prop_parse_edits_match_oracle;
             ] );
    ]
