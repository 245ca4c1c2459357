(* Multi-client transport for the serve loop.

   This module owns every socket endpoint in the tree (the rpq_lint
   'socket' capability is granted to the slug runner/transport alone)
   and the per-connection state machines: line framing over partial
   reads, bounded buffered output with backpressure, net-fault
   injection, and the slow/dead-client policy. It never interprets
   payloads and never touches the worker pool — the serve loop in
   {!Runner} composes the two through {!Pool.poll}'s [extra] fds. *)

let m_accepts = Obs.Metrics.counter "transport.accepts"
let m_accept_fails = Obs.Metrics.counter "transport.accept_fails"
let m_client_drops = Obs.Metrics.counter "transport.client_drops"
let m_partial_writes = Obs.Metrics.counter "transport.partial_writes"
let m_write_timeouts = Obs.Metrics.counter "transport.write_timeouts"

let now () = Unix.gettimeofday ()

(* The connection state machine:

     St_open ──zero-read──▶ St_eof        (reads stop; writes continue)
        │
        ├──poison/close_after_flush──▶ St_closing   (flush, then drop)
        │
        └──EPIPE / net:client_drop / write timeout──▶ St_dead (removed)

   St_eof keeps the write half alive on purpose: a client that shut its
   sending side down still receives every reply that was already in
   flight — the serve loop cancels only its *queued* jobs. *)
type client_state = St_open | St_eof | St_closing | St_dead

type client = {
  ccid : int;
  in_fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  owns_fds : bool;  (** close the fds on drop (false for stdio) *)
  ceof_drains : bool;
      (** EOF means "drain then finish" (the stdio client), not "the
          peer is gone" (socket clients) *)
  inbuf : Buffer.t;  (** partial input line *)
  mutable out : Bytes.t;  (** buffered output; the bytes from [out_off] to [out_len] are unsent *)
  mutable out_len : int;
  mutable out_off : int;
  mutable cstate : client_state;
  mutable last_progress : float;
      (** last instant the output buffer shrank (or was empty) *)
}

type t = {
  mutable listeners : Unix.file_descr list;
  mutable conns : client list;
  mutable next_cid : int;
  max_line : int;
  out_cap : int;  (** buffered-output bytes beyond which reads pause *)
  write_timeout : float;
  chunk : Bytes.t;  (** every read from a client lands here first *)
}

type event =
  | Accepted of client
  | Line of client * string
  | Eof of client
  | Overlong of client
  | Dead of client * string

let cid c = c.ccid
let eof_drains c = c.ceof_drains
let at_eof c = c.cstate = St_eof
let is_live c = c.cstate <> St_dead
let closing c = c.cstate = St_closing
let pending_out c = c.out_len - c.out_off

let create ?(max_line = 1 lsl 20) ?(out_cap = 1 lsl 20) ?(write_timeout = 30.0) () =
  if write_timeout <= 0.0 then invalid_arg "Transport.create: write timeout must be positive";
  {
    listeners = [];
    conns = [];
    next_cid = 0;
    max_line;
    out_cap;
    write_timeout;
    chunk = Bytes.create 65536;
  }

let clients t = t.conns
let listening t = t.listeners <> []

(* ------------------------------------------------------------------ *)
(* Endpoints. All socket primitives in the tree live below this line.  *)
(* ------------------------------------------------------------------ *)

let listen_unix path =
  (* A stale socket file from a previous server blocks bind; anything
     else at that path is someone's data and bind's EADDRINUSE/ENOTSOCK
     diagnosis is the right error. *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let bound_port fd =
  match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> Some p | Unix.ADDR_UNIX _ -> None

(* Client-side helpers, so tests and the CLI's chaos clients never hold
   a raw socket (and never trip the lint socket rule): the read channel
   owns the socket fd, the write channel a dup of it, so closing both
   closes both directions exactly once. *)
let channels_of_fd fd =
  let wfd = Unix.dup ~cloexec:true fd in
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr wfd)

let connect_unix path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  channels_of_fd fd

let connect_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  channels_of_fd fd

let pair () = Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0

(* The client-side "done sending" half-close: the server sees an orderly
   EOF while this end can still read every buffered reply. *)
let shutdown_send oc =
  flush oc;
  Unix.shutdown (Unix.descr_of_out_channel oc) Unix.SHUTDOWN_SEND

(* ------------------------------------------------------------------ *)
(* Client lifecycle.                                                   *)
(* ------------------------------------------------------------------ *)

let add_listener t fd = t.listeners <- t.listeners @ [ fd ]

let add_client t ?(eof_drains = false) ?(owns_fds = true) ~in_fd ~out_fd () =
  let c =
    {
      ccid = t.next_cid;
      in_fd;
      out_fd;
      owns_fds;
      ceof_drains = eof_drains;
      inbuf = Buffer.create 1024;
      out = Bytes.create 1024;
      out_len = 0;
      out_off = 0;
      cstate = St_open;
      last_progress = now ();
    }
  in
  t.next_cid <- t.next_cid + 1;
  t.conns <- t.conns @ [ c ];
  c

let drop t c =
  if c.cstate <> St_dead then begin
    c.cstate <- St_dead;
    if c.owns_fds then begin
      (try Unix.close c.in_fd with Unix.Unix_error _ -> ());
      if c.out_fd <> c.in_fd then
        try Unix.close c.out_fd with Unix.Unix_error _ -> ()
    end;
    t.conns <- List.filter (fun x -> x.ccid <> c.ccid) t.conns
  end

let close_listeners t =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  t.listeners <- []

let shutdown t =
  close_listeners t;
  List.iter (fun c -> drop t c) t.conns

(* ------------------------------------------------------------------ *)
(* Select sets.                                                        *)
(* ------------------------------------------------------------------ *)

(* Backpressure: a client whose replies it will not read accumulates
   output; past [out_cap] we stop reading its input too, so its job
   stream stalls instead of growing the buffer without bound. The write
   timeout below is what finally declares it dead. *)
let read_fds ?(accepting = true) t =
  (if accepting then t.listeners else [])
  @ List.filter_map
      (fun c ->
        if c.cstate = St_open && pending_out c <= t.out_cap then Some c.in_fd else None)
      t.conns

let write_fds t =
  List.filter_map (fun c -> if pending_out c > 0 then Some c.out_fd else None) t.conns

(* ------------------------------------------------------------------ *)
(* Writing.                                                            *)
(* ------------------------------------------------------------------ *)

let compact_out c =
  if c.out_off >= c.out_len then begin
    c.out_len <- 0;
    c.out_off <- 0
  end
  else if c.out_off > 1 lsl 16 then begin
    let rest = pending_out c in
    Bytes.blit c.out c.out_off c.out 0 rest;
    c.out_len <- rest;
    c.out_off <- 0
  end

let flush_client t c =
  if c.cstate = St_dead || pending_out c = 0 then []
  else begin
    let want = min (pending_out c) 65536 in
    (* net:partial_write:N — every Nth flush writes only half of what it
       meant to. Content-invariant by construction: the unsent suffix
       stays buffered, so the byte stream the client sees is unchanged;
       only the syscall schedule differs. *)
    let want =
      if Resilience.Faults.net_site "partial_write" then begin
        Obs.Metrics.incr m_partial_writes;
        max 1 (want / 2)
      end
      else want
    in
    match Unix.write c.out_fd c.out c.out_off want with
    | n ->
        if n > 0 then begin
          c.out_off <- c.out_off + n;
          c.last_progress <- now ();
          compact_out c
        end;
        if pending_out c = 0 && c.cstate = St_closing then drop t c;
        []
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> []
    | exception Unix.Unix_error (err, _, _) ->
        let silent = c.cstate = St_closing in
        drop t c;
        if silent then []
        else [ Dead (c, Printf.sprintf "write failed: %s" (Unix.error_message err)) ]
  end

let send t c line =
  if c.cstate = St_dead then []
  else begin
    if pending_out c = 0 then c.last_progress <- now ();
    let len = String.length line in
    if c.out_len + len + 1 > Bytes.length c.out then begin
      (* Grow, keeping only the unsent bytes. *)
      let rest = pending_out c in
      let grown = Bytes.create (max (rest + len + 1) (2 * Bytes.length c.out)) in
      Bytes.blit c.out c.out_off grown 0 rest;
      c.out <- grown;
      c.out_len <- rest;
      c.out_off <- 0
    end;
    Bytes.blit_string line 0 c.out c.out_len len;
    Bytes.set c.out (c.out_len + len) '\n';
    c.out_len <- c.out_len + len + 1;
    flush_client t c
  end

let close_after_flush t c =
  if c.cstate <> St_dead then begin
    c.cstate <- St_closing;
    if pending_out c = 0 then drop t c
  end

let handle_writable t fd =
  match List.find_opt (fun c -> c.out_fd = fd && pending_out c > 0) t.conns with
  | Some c -> flush_client t c
  | None -> []

(* A stalled writer holds a buffer and a queue slot hostage; past the
   timeout it is dead, not slow. [last_progress] only ticks while bytes
   actually leave, so a client draining slowly but steadily survives. *)
let check_timeouts t =
  let t_now = now () in
  let stalled =
    List.filter
      (fun c ->
        c.cstate <> St_dead && pending_out c > 0
        && t_now -. c.last_progress > t.write_timeout)
      t.conns
  in
  List.concat_map
    (fun c ->
      Obs.Metrics.incr m_write_timeouts;
      Obs.Log.warn "write-timeout"
        [ ("cid", Cert.Json.Int c.ccid); ("timeout_s", Cert.Json.Float t.write_timeout) ];
      let silent = c.cstate = St_closing in
      drop t c;
      if silent then []
      else [ Dead (c, Printf.sprintf "write stalled beyond %.3fs" t.write_timeout) ])
    stalled

(* ------------------------------------------------------------------ *)
(* Reading.                                                            *)
(* ------------------------------------------------------------------ *)

let accept_conn t lfd =
  match Unix.accept ~cloexec:true lfd with
  | fd, _addr ->
      if Resilience.Faults.net_site "accept_fail" then begin
        (* The injected failure mode: the connection is taken off the
           backlog and immediately lost, as if the server ran out of fds
           mid-accept. The client sees an unexplained close and must
           reconnect. *)
        Obs.Metrics.incr m_accept_fails;
        Obs.Log.warn "accept-fail" [ ("fault", Cert.Json.Str "net:accept_fail") ];
        (try Unix.close fd with Unix.Unix_error _ -> ());
        []
      end
      else begin
        Unix.set_nonblock fd;
        Obs.Metrics.incr m_accepts;
        let c = add_client t ~eof_drains:false ~owns_fds:true ~in_fd:fd ~out_fd:fd () in
        [ Accepted c ]
      end
  | exception Unix.Unix_error (_, _, _) ->
      (* ECONNABORTED, EAGAIN after a spurious wakeup, fd exhaustion:
         nothing to do but keep serving the clients we have. *)
      []

(* Split the complete lines out of the [n] bytes just read into
   [t.chunk], the first one joined to the client's partial line, which
   [c.inbuf] holds between reads. A line longer than [max_line] means the
   framing is gone for this client — one [Overlong] event, input stops
   ([St_closing]), and the serve loop decides what to say before the
   flush-and-close. *)
let split_lines t c n =
  let chunk = t.chunk in
  let rec newline i = if i >= n || Bytes.unsafe_get chunk i = '\n' then i else newline (i + 1) in
  let events = ref [] in
  let overlong = ref false in
  let start = ref 0 in
  let continue = ref true in
  while !continue do
    let i = newline !start in
    if i >= n then begin
      Buffer.add_subbytes c.inbuf chunk !start (n - !start);
      continue := false
    end
    else if Buffer.length c.inbuf + (i - !start) > t.max_line then begin
      overlong := true;
      continue := false
    end
    else begin
      let line =
        if Buffer.length c.inbuf = 0 then Bytes.sub_string chunk !start (i - !start)
        else begin
          Buffer.add_subbytes c.inbuf chunk !start (i - !start);
          let line = Buffer.contents c.inbuf in
          Buffer.clear c.inbuf;
          line
        end
      in
      events := Line (c, line) :: !events;
      start := i + 1
    end
  done;
  if (not !overlong) && Buffer.length c.inbuf > t.max_line then overlong := true;
  if !overlong then begin
    Buffer.clear c.inbuf;
    c.cstate <- St_closing;
    events := Overlong c :: !events
  end;
  List.rev !events

let client_readable t c =
  if c.cstate <> St_open then []
  else if Resilience.Faults.net_site "client_drop" then begin
    (* net:client_drop:N — the connection is severed from the server
       side, mid-stream, exactly as a crashed client looks to us. *)
    Obs.Metrics.incr m_client_drops;
    Obs.Log.info "client-drop" [ ("cid", Cert.Json.Int c.ccid) ];
    drop t c;
    [ Dead (c, "net:client_drop fault") ]
  end
  else begin
    match Unix.read c.in_fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 ->
        (* Zero read: orderly EOF. A torn trailing line is input, not
           silence — surface it before the Eof so nothing is dropped. *)
        c.cstate <- St_eof;
        let tail =
          if Buffer.length c.inbuf > 0 then begin
            let line = Buffer.contents c.inbuf in
            Buffer.clear c.inbuf;
            [ Line (c, line) ]
          end
          else []
        in
        tail @ [ Eof c ]
    | n -> split_lines t c n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> []
    | exception Unix.Unix_error (err, _, _) ->
        drop t c;
        [ Dead (c, Printf.sprintf "read failed: %s" (Unix.error_message err)) ]
  end

let handle_readable t fd =
  if List.memq fd t.listeners then accept_conn t fd
  else
    match List.find_opt (fun c -> c.in_fd = fd) t.conns with
    | Some c -> client_readable t c
    | None -> []
