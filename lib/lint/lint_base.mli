(** Shared primitives of the analyzer: the finding type, the hard-error
    exception, and the lexical engine (comment/string stripping and the
    combined identifier/operator token stream) every rule is built on. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  rule : string;  (** one of the rule names in {!Lint_rules} *)
  message : string;
  path : string list;
      (** Witness call path for transitive capability findings, outermost
          module first (e.g. [["Resilience.Exact"; "Resilience.Helper";
          "Runner.Pool"]]); [[]] for direct findings. *)
}

exception Lint_error of string * int * string
(** [(file, line, message)]: the analyzer could not complete — unreadable
    root or source file, unparseable dune stanza. Deliberately an error and
    not a finding: a scan that cannot see the tree must not report it
    clean. Line 0 means the position is the whole file. *)

val errorf : string -> int -> ('a, unit, string, 'b) format4 -> 'a
(** Formats a message and raises {!Lint_error}. *)

val error_to_string : string * int * string -> string
(** ["file:line: message"]. *)

val pp_finding : Format.formatter -> finding -> unit
val finding_to_string : finding -> string

val compare_finding : finding -> finding -> int
(** Total deterministic order: (file, line, rule, message, path). *)

val is_ident_start : char -> bool
val is_ident_char : char -> bool
val is_op_char : char -> bool

val strip : string -> string
(** Comments, strings and character literals replaced by spaces; newlines
    (and hence line numbers) preserved. *)

type token = { text : string; line : int; op : bool }

val lex : string -> token list
(** Combined stream over a {e stripped} source: longest dotted identifiers
    and maximal operator runs, in source order. *)

val tokens : string -> (string * int) list
(** Identifier tokens only (with line numbers) of a stripped source. *)

val read_file : string -> string
(** @raise Lint_error if the file cannot be read. *)

val ml_files : string -> string list
(** Every [.ml] under the directory, recursively, deterministically
    ordered.
    @raise Lint_error if a directory cannot be read. *)

val capitalize : string -> string
val module_of_file : string -> string
(** [module_of_file "lib/core/exact.ml"] is ["Exact"]. *)

val relativize : root:string -> string -> string
(** Strip a leading [root ^ "/"] prefix, if present. *)
