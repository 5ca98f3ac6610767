(* serve-open: the real [postcard_serve] daemon on the manual clock with its
   default [postcard-tiered] scheduler (8 DCs, c = 100 GB), driven by one
   client over one TCP_NODELAY connection. The client replays a seeded
   paper-workload script, a [tick] after each slot's files, as an open
   loop: submit i is due at [i / rate] seconds whether or not earlier
   submits have been decided, and its decision time runs from when it was
   due to when its accepted/rejected line arrives. Protocol, session,
   [Engine.offer] and the ledger admission do the work; the LP is idle.

   The manual clock makes every verdict independent of the rate and of
   timing, so each run boots a fresh daemon, replays the identical script
   and must produce the identical verdict sequence. *)

module Protocol = Serve.Protocol
module Session = Serve.Session
module Engine = Sim.Engine
module Workload = Sim.Workload
module File = Postcard.File
open Measure

let nodes = 8
let capacity = 100.
let script_slots = 250

(* The reference rate (submits per second) at which decision latency is
   reported. A run is invalid when the generator ran more than
   [late_limit_ms] late at its own p99, or when more than [backlog_limit]
   submits were undecided as the last one went out: it then measured the
   client, or a queue that grows. *)
let reference_rate = 2000.
let late_limit_ms = 1.
let backlog_limit = 10

let spec =
  { (Workload.paper_spec ~nodes ~files_max:20 ~max_deadline:3) with
    Workload.urgent_size_cap = Some capacity }

type item = Submit of File.t | Tick

let script seed =
  let w = Workload.create spec (Prelude.Rng.of_int (seed * 104729)) in
  Array.of_list
    (List.concat
       (List.init script_slots (fun slot ->
            List.map (fun f -> Submit f) (Workload.arrivals w ~slot) @ [ Tick ])))

(* The daemon draws its network from [--seed network_seed]; the benchmark
   seed draws the script. This is the daemon's own derivation. *)
let network_seed = 1

let network () =
  Netgraph.Topology.complete ~n:nodes
    ~rng:(Prelude.Rng.of_int (network_seed * 7919))
    ~cost_lo:1. ~cost_hi:10. ~capacity

let request_line = function
  | Submit f ->
      Protocol.request_to_line
        (Protocol.Submit
           { src = f.File.src; dst = f.File.dst; size = f.File.size; deadline = f.File.deadline })
  | Tick -> Protocol.request_to_line Protocol.Tick

let submits items =
  Array.of_list (List.filter_map (function Submit f -> Some f | Tick -> None) (Array.to_list items))

(* {1 Line I/O} *)

type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t; lines : string Queue.t }

let reader fd = { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536; lines = Queue.create () }

(* One read of whatever is available; complete lines go to the queue.
   Returns false at end of stream. *)
let fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes r.buf r.chunk 0 n;
      let data = Buffer.contents r.buf in
      (match String.rindex_opt data '\n' with
       | None -> ()
       | Some last ->
           List.iter
             (fun l -> if l <> "" then Queue.push l r.lines)
             (String.split_on_char '\n' (String.sub data 0 last));
           Buffer.clear r.buf;
           Buffer.add_string r.buf (String.sub data (last + 1) (String.length data - last - 1)));
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true

let next_line r ~deadline what =
  while Queue.is_empty r.lines do
    let wait = deadline -. now () in
    if wait <= 0. then fail "serve-open: timed out waiting for %s" what;
    match Unix.select [ r.fd ] [] [] wait with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> if not (fill r) then fail "serve-open: stream closed while waiting for %s" what
  done;
  Queue.pop r.lines

let event line =
  match Protocol.event_of_line line with
  | Ok ev -> ev
  | Error msg -> fail "serve-open: undecodable line %S: %s" line msg

(* {1 The daemon} *)

type daemon = {
  pid : int;
  out : reader;  (* its stdout *)
  conn : reader;  (* the client connection *)
  boot_s : float;  (* spawn to [hello] *)
  mutable reaped : bool;
}

(* [cmd] is the daemon's executable, possibly behind a [taskset] prefix. *)
let spawn ~cmd =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    [| "--nodes"; string_of_int nodes; "--capacity"; Printf.sprintf "%g" capacity;
       "--seed"; string_of_int network_seed; "--slots"; string_of_int (script_slots + 1);
       "--clock"; "manual" |]
  in
  let pid =
    Fun.protect
      (fun () ->
        Unix.create_process (List.hd cmd) (Array.append (Array.of_list cmd) args) null out_w
          Unix.stderr)
      ~finally:(fun () -> Unix.close out_w; Unix.close null)
  in
  (pid, out_r)

let connect pid out_r t0 =
  let out = reader out_r in
  let deadline = t0 +. 60. in
  let line = next_line out ~deadline "the daemon's port" in
  let port =
    try Scanf.sscanf line "listening on 127.0.0.1:%d" Fun.id
    with Scanf.Scan_failure _ | End_of_file -> fail "serve-open: unexpected daemon line %S" line
  in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt sock Unix.TCP_NODELAY true;
  Unix.set_nonblock sock;
  let conn = reader sock in
  (match event (next_line conn ~deadline "hello") with
   | Protocol.Hello _ -> ()
   | _ -> fail "serve-open: the first line was not hello");
  { pid; out; conn; boot_s = now () -. t0; reaped = false }

let reap d =
  if not d.reaped then begin
    d.reaped <- true;
    (try Unix.close d.conn.fd with Unix.Unix_error _ -> ());
    (try Unix.close d.out.fd with Unix.Unix_error _ -> ());
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid)
  end

(* Boot a daemon, run [f] on it, and always stop it and wait for it. *)
let with_daemon ~cmd f =
  let t0 = now () in
  let pid, out_r = spawn ~cmd in
  let d =
    try connect pid out_r t0
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  Fun.protect (fun () -> f d) ~finally:(fun () -> reap d)

(* After [session_end]: close the connection, read the daemon's stdout to
   its end (it prints a summary there) and wait for it. *)
let exit_cleanly d =
  Unix.close d.conn.fd;
  let deadline = now () +. 30. in
  let rec drain () =
    Queue.clear d.out.lines;
    let wait = deadline -. now () in
    if wait <= 0. then fail "serve-open: the daemon did not exit";
    match Unix.select [ d.out.fd ] [] [] wait with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    | [], _, _ -> drain ()
    | _ -> if fill d.out then drain ()
  in
  drain ();
  Unix.close d.out.fd;
  let status = snd (Unix.waitpid [] d.pid) in
  d.reaped <- true;
  status = Unix.WEXITED 0

(* {1 One open-loop run} *)

type step = {
  boot_s : float;
  decision_ms : float array;  (* per submit, from due to verdict *)
  late_ms : float array;  (* per submit, from due to sent *)
  backlog : int;  (* undecided submits when the last one was sent *)
  verdicts : int array;  (* 1 accepted, 2 rejected *)
  rss_mb : float;
  cpu_s : float;  (* daemon CPU time while the script replayed *)
  final_bill : float;  (* the last slot broadcast's cost *)
  session_end : Protocol.event;
}

let p99 a = percentile a 99.
let p90 a = percentile a 90.

let valid s = p99 s.late_ms <= late_limit_ms && s.backlog <= backlog_limit

let drive d items ~rate =
  let subs = submits items in
  let n = Array.length subs in
  let lines = Array.map (fun it -> request_line it ^ "\n") items in
  let sock = d.conn.fd in
  let cpu0 = cpu_s (string_of_int d.pid) in
  let t0 = now () +. 0.002 in
  let due i = t0 +. (float_of_int i /. rate) in
  let decided = Array.make n nan and verdicts = Array.make n 0 in
  let late = Array.make n 0. in
  let next_item = ref 0 and next_sub = ref 0 and queued = ref 0 and decisions = ref 0 in
  let backlog = ref 0 and final_bill = ref nan in
  let staged = Buffer.create 65536 and pend = ref "" and pend_off = ref 0 in
  let flush () =
    if !pend_off >= String.length !pend && Buffer.length staged > 0 then begin
      pend := Buffer.contents staged;
      pend_off := 0;
      Buffer.clear staged
    end;
    let len = String.length !pend - !pend_off in
    if len > 0 then
      match Unix.write_substring sock !pend !pend_off len with
      | k -> pend_off := !pend_off + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let pending () = !pend_off < String.length !pend || Buffer.length staged > 0 in
  let decide t id v =
    if id < 0 || id >= n || verdicts.(id) <> 0 then
      fail "serve-open: unexpected or repeated verdict for submit %d" id;
    verdicts.(id) <- v;
    decided.(id) <- t;
    incr decisions
  in
  let handle t line =
    match event line with
    | Protocol.Queued { id; _ } ->
        if id <> !queued then fail "serve-open: submit %d acknowledged as id %d" !queued id;
        incr queued
    | Protocol.Accepted { id; _ } -> decide t id 1
    | Protocol.Rejected { id; _ } -> decide t id 2
    | Protocol.Slot { cost; _ } -> final_bill := cost
    | Protocol.Completed _ | Protocol.Stranded _ | Protocol.Recovered _ | Protocol.Lost _ -> ()
    | Protocol.Error msg -> fail "serve-open: daemon error: %s" msg
    | _ -> fail "serve-open: unexpected event %s" line
  in
  let give_up = t0 +. (float_of_int n /. rate) +. 30. in
  while !decisions < n do
    let t = now () in
    if t > give_up then fail "serve-open: %d of %d submits undecided 30 s after schedule" (n - !decisions) n;
    let stop = ref false in
    while (not !stop) && !next_item < Array.length items do
      match items.(!next_item) with
      | Tick ->
          Buffer.add_string staged lines.(!next_item);
          incr next_item
      | Submit _ ->
          let i = !next_sub in
          if due i <= t then begin
            late.(i) <- 1000. *. (t -. due i);
            Buffer.add_string staged lines.(!next_item);
            incr next_sub;
            incr next_item;
            if !next_sub = n then backlog := n - !decisions
          end
          else stop := true
    done;
    flush ();
    let timeout =
      if !next_sub < n then Float.max 0. (due !next_sub -. now ()) else 0.05
    in
    match Unix.select [ sock ] (if pending () then [ sock ] else []) [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        if writable <> [] then flush ();
        if readable <> [] then begin
          if not (fill d.conn) then fail "serve-open: the daemon closed the connection";
          let t = now () in
          Queue.iter (handle t) d.conn.lines;
          Queue.clear d.conn.lines
        end
  done;
  while pending () do
    flush ();
    if pending () then ignore (Unix.select [] [ sock ] [] 1.)
  done;
  let rss_mb = peak_rss_mb (string_of_int d.pid) in
  let cpu = cpu_s (string_of_int d.pid) -. cpu0 in
  (* Stop: the session drains and broadcasts its byte totals. *)
  Buffer.add_string staged (Protocol.request_to_line Protocol.Stop ^ "\n");
  while pending () do
    flush ();
    if pending () then ignore (Unix.select [] [ sock ] [] 1.)
  done;
  let deadline = now () +. 30. in
  let rec until_end () =
    match event (next_line d.conn ~deadline "session_end") with
    | Protocol.Session_end _ as ev -> ev
    | Protocol.Slot { cost; _ } ->
        final_bill := cost;
        until_end ()
    | Protocol.Completed _ -> until_end ()
    | _ -> fail "serve-open: unexpected event before session_end"
  in
  let session_end = until_end () in
  if not (exit_cleanly d) then fail "serve-open: the daemon did not exit cleanly";
  { boot_s = d.boot_s;
    cpu_s = cpu;
    decision_ms = Array.init n (fun i -> 1000. *. (decided.(i) -. due i));
    late_ms = late;
    backlog = !backlog;
    verdicts;
    rss_mb;
    final_bill = !final_bill;
    session_end }

(* {1 Gates} *)

(* Every submit got exactly one verdict (checked while driving), the
   [session_end] byte totals reconcile with the script and the verdicts,
   and every run gives the first run's verdicts. *)
let check subs first s =
  match s.session_end with
  | Protocol.Session_end { offered_bytes; delivered_bytes; rejected_bytes; lost_bytes; _ } ->
      let offered = Array.fold_left (fun acc f -> acc +. f.File.size) 0. subs in
      let rejected = ref 0. in
      Array.iteri (fun i v -> if v = 2 then rejected := !rejected +. subs.(i).File.size) s.verdicts;
      if not (close_to offered offered_bytes) then
        fail "serve-open: session_end offers %.6f GB, the script %.6f GB" offered_bytes offered;
      if not (close_to !rejected rejected_bytes) then
        fail "serve-open: session_end rejects %.6f GB, the verdicts %.6f GB" rejected_bytes !rejected;
      if not (close_to offered_bytes (delivered_bytes +. rejected_bytes +. lost_bytes)) then
        fail "serve-open: offered %.6f GB <> delivered + rejected + lost %.6f GB" offered_bytes
          (delivered_bytes +. rejected_bytes +. lost_bytes);
      (match first with
       | Some f when f.verdicts <> s.verdicts || f.session_end <> s.session_end ->
           fail "serve-open: a run's verdicts differ from the first run's"
       | _ -> ())
  | _ -> fail "serve-open: no session_end"

let step ~cmd items first =
  let s = with_daemon ~cmd (fun d -> drive d items ~rate:reference_rate) in
  check (submits items) first s;
  s

let delivered_offered s =
  match s.session_end with
  | Protocol.Session_end { offered_bytes; delivered_bytes; cost; _ } -> (delivered_bytes, offered_bytes, cost)
  | _ -> assert false

(* The host-speed kernel (see measure.ml) runs on the daemon's CPU, in a
   probe process, this many times before every run and after the last. *)
let probe_per_run = 100

let run ~cmd ~probe ~seed ~seconds =
  let items = script seed in
  with_probe probe @@ fun probe ->
  let kernel = ref [] in
  let sample () = kernel := probe_samples probe probe_per_run :: !kernel in
  let start = now () in
  sample ();
  let reference = step ~cmd items None in
  (* Repeat the run while the time allows. *)
  let rec repeat acc =
    let t0 = now () in
    sample ();
    let acc = step ~cmd items (Some reference) :: acc in
    if List.length acc < 3
       || (List.length acc < 40 && now () -. start +. (now () -. t0) <= seconds)
    then repeat acc
    else List.rev acc
  in
  let refs = repeat [ reference ] in
  sample ();
  (* The runs are short next to the minutes over which the host's speed
     drifts, and its state switches many times within each: one factor
     from every sample of the whole run scales every timing. *)
  let factor = speed_factor (Array.concat !kernel) in
  (* Runs whose generator fell behind measured the client, not the daemon;
     runs whose backlog grew measured a queue, not a decision. *)
  let valid_refs = match List.filter valid refs with [] -> refs | v -> v in
  let n = Array.length reference.verdicts in
  (* The highest sustainable rate by the utilization law: the reference
     rate divided by the share of a CPU the daemon used to serve it. The
     wall-clock alternative, the decision rate while every submit is due at
     once, swung by half between runs of one seed here: how the daemon's
     reads batch the flood depends on a race with the client. *)
  let daemon_cpu_s = List.fold_left (fun acc s -> acc +. s.cpu_s) 0. refs in
  let max_rps = float_of_int (n * List.length refs) /. daemon_cpu_s in
  let p50 = median_list (List.map (fun s -> median s.decision_ms) valid_refs) in
  let tail = median_list (List.map (fun s -> p90 s.decision_ms) valid_refs) in
  let boot_s = median_list (List.map (fun s -> s.boot_s) refs) in
  let delivered, offered, avg_cost = delivered_offered reference in
  let rejected = Array.fold_left (fun acc v -> if v = 2 then acc + 1 else acc) 0 reference.verdicts in
  { attempted = n * List.length refs;
    failed = 0;
    metrics =
      [ m "setup_s" "s" (factor *. boot_s);
        m "peak_rss_mb" "MB" (median_list (List.map (fun s -> s.rss_mb) refs));
        m "op_ms_p50" "ms" (factor *. p50);
        m "op_ms_tail" "ms" (factor *. tail);
        m "ops_per_s" "1/s" (max_rps /. factor);
        m "cost_per_interval" "cost" avg_cost;
        m "cost_per_delivered_gb" "cost/GB" (reference.final_bill /. delivered);
        m "served_share" "ratio" (delivered /. offered) ];
    notes =
      [ ("op", Printf.sprintf "one submit decision at %g/s, open loop" reference_rate);
        ("timings", "at the host's usual speed (see measure.ml)");
        ("speed_factor",
         Printf.sprintf "%.3f from %d kernel samples on the daemon's CPU"
           factor (probe_per_run * List.length !kernel));
        ("unscaled",
         Printf.sprintf "setup_s %.6f  op_ms_p50 %.4f  op_ms_tail %.4f  ops_per_s %.1f"
           boot_s p50 tail max_rps);
        ("op_ms_tail",
         Printf.sprintf "median p90 over %d valid runs of %d decisions (%d beyond); %d runs in all"
           (List.length valid_refs) n (n - 1 - Prelude.Stats.percentile_rank n 90.)
           (List.length refs));
        ("decision_ms_p99",
         Printf.sprintf "%.3f (median over valid runs, scaled; recorded, not bounded)"
           (factor *. median_list (List.map (fun s -> p99 s.decision_ms) valid_refs)));
        ("gen.late_ms_p99", Printf.sprintf "%.3f (median over runs)" (median_list (List.map (fun s -> p99 s.late_ms) refs)));
        ("daemon_cpu_s", Printf.sprintf "%.3f over %d runs" daemon_cpu_s (List.length refs));
        ("submits", string_of_int n);
        ("rejected", string_of_int rejected);
        ("backlog", Printf.sprintf "%d (median over runs)"
                      (int_of_float (median_list (List.map (fun s -> float_of_int s.backlog) refs))));
        ("validity", Printf.sprintf "generator p99 late <= %g ms, backlog <= %d submits"
                       late_limit_ms backlog_limit) ] }

(* {1 The traced run: the same script through the session in-process} *)

type layer_timers = {
  sched : sched_timers;
  submit : timer;
  tick : timer;
  decode : timer;
  encode : timer;
  offer : timer;
  step : timer;
}

let layer_timers () =
  { sched = sched_timers ();
    submit = timer "bench.session.submit";
    tick = timer "bench.session.tick";
    decode = timer "bench.protocol.decode";
    encode = timer "bench.protocol.encode";
    offer = timer "bench.engine.offer";
    step = timer "bench.engine.step" }

(* Replay the script through [Serve.Session] as the daemon would: decode
   each request line, hand it to the session, encode every event it
   emits. [lines] are the items' request lines. Returns the verdicts and
   the lines and bytes sent. *)
let session_replay lt base items lines =
  let subs = submits items in
  let verdicts = Array.make (Array.length subs) 0 in
  let lines_out = ref 0 and bytes_out = ref 0 in
  let inner = sched_inner lt.sched in
  let scheduler = timed_scheduler lt.sched (Postcard.Scheduler.make_exn "postcard-tiered") in
  let session =
    Session.create ~base ~scheduler ~slots:(script_slots + 1) ~clock:"manual" ()
  in
  let emit effects =
    List.iter
      (function
        | Session.Send (_, ev) | Session.Broadcast ev ->
            let line = timed lt.encode (fun () -> Protocol.event_to_line ev) in
            incr lines_out;
            bytes_out := !bytes_out + String.length line + 1;
            (match ev with
             | Protocol.Accepted { id; _ } -> verdicts.(id) <- 1
             | Protocol.Rejected { id; _ } -> verdicts.(id) <- 2
             | Protocol.Error msg -> fail "serve-open: session error: %s" msg
             | _ -> ())
        | Session.Disconnect _ | Session.End_session -> ())
      effects
  in
  emit (Session.connect session 0);
  Array.iteri
    (fun i it ->
      match it with
      | Submit _ ->
          let line = lines.(i) in
          ignore (timed lt.decode (fun () -> Protocol.request_of_line line));
          emit (timed ~inner lt.submit (fun () -> Session.on_line session 0 line))
      | Tick -> emit (timed ~inner lt.tick (fun () -> Session.tick session)))
    items;
  emit (Session.stop session);
  (verdicts, !lines_out, !bytes_out)

(* The engine alone under the same script: [Engine.offer] per submit,
   [Engine.step] per tick. *)
let engine_replay lt base items =
  let inner = sched_inner lt.sched in
  let scheduler = timed_scheduler lt.sched (Postcard.Scheduler.make_exn "postcard-tiered") in
  let engine =
    Engine.init
      (Engine.make ~base ~scheduler ~workload:(Workload.pushable ())
         ~slots:(script_slots + 1) ())
  in
  let verdicts =
    List.filter_map
      (function
        | Submit f -> (
            match timed ~inner lt.offer (fun () -> Engine.offer engine f) with
            | Some `Admitted -> Some 1
            | Some `Rejected -> Some 2
            | None -> fail "serve-open: the scheduler has no admit capability")
        | Tick ->
            ignore (timed ~inner lt.step (fun () -> Engine.step engine ~arrivals:[]));
            None)
      (Array.to_list items)
  in
  ignore (Engine.drain engine);
  Array.of_list verdicts

let run_traced ~cmd ~seed =
  let items = script seed in
  let n = Array.length (submits items) in
  let base = network () in
  (* The daemon at the reference rate: the generator's lateness, and the
     verdicts the in-process replays must reproduce. *)
  let daemon = step ~cmd items None in
  let same what v =
    if v <> daemon.verdicts then fail "serve-open: %s verdicts differ from the daemon's" what
  in
  let et = layer_timers () in
  same "engine replay" (engine_replay et base items);
  let lines = Array.map request_line items in
  Obs.Metrics.reset ();
  let lt = layer_timers () in
  let t0 = now () in
  let (verdicts, lines_out, bytes_out), gc = with_gc (fun () -> session_replay lt base items lines) in
  let untraced_s = now () -. t0 in
  same "session replay" verdicts;
  let fast = counter "tier.fast_admits" and fallback = counter "tier.fallback_files" in
  let pivots = counter "simplex.pivots" in
  (* The traced replay alone feeds the LP and LU counters. *)
  Obs.Metrics.reset ();
  let ((traced_verdicts, _, _), traced_s), tr =
    with_trace (fun () ->
        let t1 = now () in
        let r =
          Obs.Span.with_ "bench.pass" (fun () -> session_replay (layer_timers ()) base items lines)
        in
        (r, now () -. t1))
  in
  same "traced session replay" traced_verdicts;
  check_pivots ~untraced:pivots tr;
  let unattributed =
    check_attribution tr ~wall_s:traced_s
      ([ "bench.protocol.decode"; "bench.protocol.encode"; "bench.session.submit";
         "bench.session.tick"; "bench.sched.admit" ]
      @ engine_spans @ lp_spans)
  in
  let per_submit x = float_of_int x /. float_of_int n in
  let us t = 1e6 *. mean_self t in
  ( { attempted = 3 * n;
      failed = 0;
      metrics = [];
      notes =
        [ ("untraced_s", Printf.sprintf "%.4f" untraced_s);
          ("traced_s", Printf.sprintf "%.4f" traced_s);
          ("daemon", Printf.sprintf "p50 %.3f ms  p99 %.3f ms at %g/s"
                       (median daemon.decision_ms) (p99 daemon.decision_ms) reference_rate) ] },
    lp_layers tr
    @ gc_layers gc
    @ [ ("sched.admit_us", us lt.sched.admit);
        ("sched.schedule_ms", 1000. *. mean_self lt.sched.schedule);
        ("sched.calls", float_of_int (lt.sched.admit.calls + lt.sched.schedule.calls));
        ("tier.fast_share",
         if fast + fallback = 0 then 0. else float_of_int fast /. float_of_int (fast + fallback));
        ("tier.fallback_files", float_of_int fallback);
        ("engine.step_ms", 1000. *. mean_self et.step);
        ("engine.offer_us", us et.offer);
        ("protocol.decode_us", us lt.decode);
        ("protocol.encode_us", us lt.encode);
        ("protocol.lines_out_per_request", per_submit lines_out);
        ("protocol.bytes_out_per_request", per_submit bytes_out);
        ("session.submit_us", us lt.submit);
        ("session.tick_ms", 1000. *. mean_self lt.tick);
        ("gen.late_ms_p99", p99 daemon.late_ms);
        ("trace.overhead_ratio", traced_s /. untraced_s);
        ("trace.unattributed_share", unattributed) ] )
