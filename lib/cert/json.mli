(** Minimal JSON: a value tree with a total emitter and a parser, plus the
    streaming codec underneath both.

    This module is the single JSON implementation for the whole tree: the
    wire protocol ({!Proto}), the journal, and the independent certificate
    checker all share it, and it deliberately depends on nothing but the
    standard library so {!Checker} can be linked without any solver code.

    Replies and certificates never pass through {!t}: they are written
    with the [Buffer] writers below and read with the pull reader
    straight into their records. {!to_string} and {!parse} are the tree
    clients of the same writers and the same lexer, so a value reads and
    prints the same either way. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering. Non-finite floats emit as [null];
    control characters, backslash, and double quote are escaped, so the
    result never contains a raw newline — safe for line-delimited
    framing. *)

val parse : string -> (t, string) result
(** Strict: the whole input must be one JSON value (surrounding
    whitespace allowed). Duplicate keys keep the first occurrence. *)

val member : string -> t -> t option
val to_int_opt : t -> int option
val to_str_opt : t -> string option

val to_float_opt : t -> float option
(** Accepts ints too (JSON does not distinguish [1] from [1.0]). *)

(** {2 Writers}

    Each appends exactly the bytes {!to_string} gives the matching tree. *)

val add_string : Buffer.t -> string -> unit
val add_int : Buffer.t -> int -> unit

val add_float : Buffer.t -> float -> unit
(** [%.9g]; [null] when not finite. *)

val add_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

val add_key : Buffer.t -> string -> unit
(** An object member's quoted name and its colon. *)

val add_member : Buffer.t -> string -> unit
(** A comma, then {!add_key}: every member after an object's first. *)

(** {2 The reader}

    A pull reader over one string. Its lexer is {!parse}'s: a syntax
    error raises inside the reader and comes out of {!read} as the
    message {!parse} gives for the same bytes, wherever the reader was
    in the value. *)

type reader

val read : string -> (reader -> 'a) -> ('a, string) result
(** [read s f] runs [f] on a reader at the start of [s]; [f] must read
    one value. Whitespace may surround it; anything else after it is
    [trailing garbage]. [Error] is a syntax error only: a decoder keeps
    its own field errors inside ['a]. *)

val skip : reader -> unit
(** Reads past the next value, checking its syntax. *)

val peek : reader -> char
(** The first byte of the next value, read past whitespace, without
    reading the value. *)

val fields : reader -> (string -> unit) -> unit
(** [fields r f] calls [f name] for each member of the next value, in
    order and duplicates included, with the reader at the member's
    value; [f] must read that value. A value that is not an object is
    skipped and reads as an object without members. *)

val spanned : (reader -> 'a) -> reader -> 'a * string
(** [spanned item r] is [item r] with the bytes it read, from the
    value's first byte to its last. *)

(** {2 Typed values}

    A typed read that meets a value of another type reads past it and
    marks the member {e ill-typed}, returning a placeholder. Elements
    are read the same way, so one ill-typed element marks the whole
    member while the rest of it is still syntax-checked. A number is an
    int or a float exactly as {!parse} reads it. *)

val ill : reader -> unit
(** Marks the member being read ill-typed (a value read, then refused). *)

val int : reader -> int

val float : reader -> float
(** Accepts ints too, as {!to_float_opt} does. *)

val str : reader -> string
val bool : reader -> bool

val nullable : (reader -> 'a) -> reader -> 'a option
(** [None] for [null]. *)

val list : (reader -> 'a) -> reader -> 'a list

val assoc : (reader -> 'a) -> reader -> (string * 'a) list
(** An object's members in order, duplicates included. *)

val tuple : 'a -> (reader -> 'a) -> reader -> 'a
(** [tuple dummy item r] reads a fixed-length array: [item] reads its
    elements and calls {!next} between two. A non-array, too few
    elements or too many mark the member ill-typed and give [dummy]. *)

val next : reader -> unit
(** Steps to a tuple's next element. *)

(** {2 Records}

    A record decoder reads every member into a slot, then checks the
    slots in its own order, so its field errors do not depend on the
    members' order and a syntax error anywhere comes first. *)

type 'a slot = Absent | Ill | Got of 'a

val fill : reader -> 'a slot ref -> (reader -> 'a) -> unit
(** Reads the member into an [Absent] slot: [Got] its value, or [Ill].
    A slot already filled keeps its value and the member is skipped, so
    the first of duplicated members wins. A record read inside [item]
    does not mark the member. *)
