(** Multi-client transport for the serve loop.

    The single owner of every socket endpoint in the tree (the rpq_lint
    [socket] capability is granted to the slug [runner/transport] alone)
    plus the per-connection state machines the multi-client server needs:

    {ul
    {- {b line framing}: partial reads accumulate per client and surface
       as whole {!Line} events; a torn trailing line at EOF is delivered
       before the {!Eof} event;}
    {- {b bounded buffers with backpressure}: output is buffered per
       client and flushed as the fd accepts it; past [out_cap] buffered
       bytes the client's {e input} fd leaves {!read_fds}, so a client
       that stops reading replies stops being able to submit; an input
       line beyond [max_line] yields one {!Overlong} event and poisons
       only that client;}
    {- {b slow/dead-client policy}: a write stalled beyond
       [write_timeout] (no byte left the buffer), a failed write
       (EPIPE), or an injected [net:client_drop] declares the client
       {!Dead} and removes it; a zero read is an orderly {!Eof} — reads
       stop, but buffered and future replies still flush, so a client
       that half-closes after its last job reads every reply;}
    {- {b net-fault sites} ({!Resilience.Faults.net_site}):
       [accept_fail] loses a just-accepted connection, [client_drop]
       severs a live client, [partial_write] halves a flush (content is
       unchanged — the suffix stays buffered).}}

    The module never interprets payloads and never owns the event loop:
    the serve loop passes {!read_fds}/{!write_fds} to {!Pool.poll} and
    routes readiness back through {!handle_readable}/{!handle_writable}. *)

type client
type t

type event =
  | Accepted of client  (** a listener produced a new connection *)
  | Line of client * string  (** one complete input line, without the newline *)
  | Eof of client
      (** orderly zero-read; the client stays registered for output
          until dropped by the caller *)
  | Overlong of client
      (** an input line exceeded [max_line]: framing is lost, input is
          stopped, the client is [close_after_flush]-poisoned; the
          caller may still {!send} one last error reply *)
  | Dead of client * string
      (** broken pipe, stalled write, read error, or an injected drop;
          already removed — the payload is the reason *)

val create : ?max_line:int -> ?out_cap:int -> ?write_timeout:float -> unit -> t
(** Defaults: 1 MiB line limit, 1 MiB output backpressure threshold,
    30 s write stall timeout. *)

(** {2 Client accessors} *)

val cid : client -> int
(** Dense, never reused within a transport. *)

val eof_drains : client -> bool
val at_eof : client -> bool
val is_live : client -> bool

val closing : client -> bool
(** The client is [close_after_flush]-poisoned: its remaining output
    will flush, but no further input should be acted on (lines already
    split from the same read batch may still arrive as events). *)

val pending_out : client -> int
val clients : t -> client list
val listening : t -> bool

(** {2 Endpoints} *)

val listen_unix : string -> Unix.file_descr
(** Binds and listens on a Unix-domain socket path, unlinking a stale
    socket file first (anything else at the path makes bind fail). *)

val listen_tcp : int -> Unix.file_descr
(** Binds and listens on loopback only — remote serving is a deployment
    concern, not this module's. Port 0 asks the kernel for a free port;
    recover it with {!bound_port}. *)

val bound_port : Unix.file_descr -> int option

val connect_unix : string -> in_channel * out_channel
val connect_tcp : int -> in_channel * out_channel
(** Client-side connect, returned as channels so callers (tests, the
    CLI's chaos clients) never hold a raw socket fd — the lint [socket]
    capability stays confined here. Close both channels to close the
    connection. *)

val pair : unit -> Unix.file_descr * Unix.file_descr
(** A connected [socketpair], for tests that drive a client state
    machine directly. *)

val channels_of_fd : Unix.file_descr -> in_channel * out_channel
(** Wrap a connected socket fd as a channel pair (the read channel owns
    the fd, the write channel a dup): closing both closes both
    directions exactly once. What {!connect_unix}/{!connect_tcp} return;
    exposed for callers holding a {!pair} end. *)

val shutdown_send : out_channel -> unit
(** Flush, then half-close the sending direction of a connected socket
    channel (from {!connect_unix}/{!connect_tcp}/{!channels_of_fd}): the
    server observes an orderly EOF while replies keep flowing back. *)

(** {2 Lifecycle} *)

val add_listener : t -> Unix.file_descr -> unit

val add_client :
  t -> ?eof_drains:bool -> ?owns_fds:bool -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit -> client
(** Registers a pre-connected client (the stdio pair, or a test's
    socketpair end). [eof_drains] (default true, as for accepted
    connections) marks EOF as "drain then finish" rather than "peer is
    gone"; [owns_fds] (default true) closes the fds on drop. *)

val drop : t -> client -> unit
(** Removes the client, closing its fds if owned. Idempotent. *)

val close_after_flush : t -> client -> unit
(** Stops the client's input and drops it once its output buffer
    drains (or immediately if empty); a subsequent stall or write error
    drops it silently, without a {!Dead} event. *)

val close_listeners : t -> unit
(** Stop accepting (the graceful-drain first step). *)

val shutdown : t -> unit

(** {2 The select-loop surface} *)

val read_fds : ?accepting:bool -> t -> Unix.file_descr list
(** Listener fds (unless [accepting:false]) plus the input fds of open
    clients under the backpressure threshold. *)

val write_fds : t -> Unix.file_descr list
(** Output fds of clients with buffered output pending. *)

val handle_readable : t -> Unix.file_descr -> event list
(** Dispatch one readable fd: accept on a listener (site
    [accept_fail]), else read the matching client (site [client_drop]),
    returning the events in input order. Unknown fds yield []. *)

val handle_writable : t -> Unix.file_descr -> event list

val send : t -> client -> string -> event list
(** Buffers [line ^ "\n"] and flushes opportunistically (site
    [partial_write]). No-op on a dead client. The returned events are
    at most one [Dead] from a failed immediate flush. *)

val check_timeouts : t -> event list
(** Declares clients whose writes stalled beyond the timeout dead. Call
    once per loop iteration. *)
