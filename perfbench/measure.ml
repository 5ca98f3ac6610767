(* Clocks, sample statistics, process counters and the per-layer timers
   shared by the workloads.

   Every layer is timed from outside: a [timer] wraps a call into a public
   function of the layer (and opens a profiling span named after it, so a
   traced run's span table covers the benchmark's own calls too). Deeper
   splits come from instrumentation the library already has: the
   [Obs.Metrics] counters and the [Obs.Span] self-time table. *)

let now = Unix.gettimeofday

exception Gate of string
(** A correctness gate failed: the benchmark prints the reason and exits
    non-zero without printing any numbers. *)

let fail fmt = Printf.ksprintf (fun msg -> raise (Gate msg)) fmt

let close_to a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* {1 Samples} *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let median_list l = median (Array.of_list l)

let percentile a p = if Array.length a = 0 then nan else Prelude.Stats.percentile a p

(* Mean of the middle 80% of the samples: a sample that a preemption
   stretched does not move it, and unlike the median it moves smoothly as
   the share of slow samples changes. *)
let trimmed_mean a =
  let s = sorted a in
  let n = Array.length s in
  let cut = n / 10 in
  let sum = ref 0. in
  for i = cut to n - cut - 1 do
    sum := !sum +. s.(i)
  done;
  !sum /. float_of_int (n - (2 * cut))

(* {1 Host speed}

   The shared host this benchmark was tuned on changes speed by up to 1.7x
   over minutes, and switches between a fast and a slow state many times
   a second. The same work repeats exactly, so the
   drift shows only in the timings. Each timing is therefore reported at
   the host's usual speed: the benchmark times a fixed kernel on the CPU
   that does the measured work, interleaved with it, and scales each
   measured time by the kernel's usual time over its mean time around the
   measurement ([speed_factor]).

   The kernel calls no code of the repository, so a change to the program
   cannot change it. It has two halves of about equal time, chosen because
   they bracket the LP workload's slowdown: a sparse matrix-vector product
   over 0.5 MB slowed a little more than period-lp between two states of
   that host (1.30x and 1.56x against 1.28x and 1.42x), building a map of
   integers (allocation and pointer chasing) a little less (1.19x and
   1.36x). A minor collection before each sample empties the minor heap,
   so the map's allocation triggers no collection inside the timing and
   the kernel's time does not depend on the program's heap. *)

let kernel_rows = 2048
let kernel_per_row = 16
let kernel_idx =
  Array.init (kernel_rows * kernel_per_row) (fun k ->
      ((k * 7919) + (k / kernel_per_row * 104729)) mod kernel_rows)
let kernel_val = Array.init (kernel_rows * kernel_per_row) (fun k -> 1. /. float_of_int (1 + (k mod 29)))
let kernel_x = Array.make kernel_rows 1.
let kernel_y = Array.make kernel_rows 0.

module Int_map = Map.Make (Int)

let kernel () =
  for _ = 1 to 4 do
    let top = ref 0. in
    for r = 0 to kernel_rows - 1 do
      let s = ref 0. in
      for k = r * kernel_per_row to ((r + 1) * kernel_per_row) - 1 do
        s := !s +. (kernel_val.(k) *. kernel_x.(kernel_idx.(k)))
      done;
      kernel_y.(r) <- !s;
      if !s > !top then top := !s
    done;
    for r = 0 to kernel_rows - 1 do
      kernel_x.(r) <- kernel_y.(r) /. !top
    done
  done;
  let m = ref Int_map.empty in
  for i = 0 to 1000 do
    let k = (i * 7919) land 4095 in
    m := Int_map.add k (Option.value ~default:i (Int_map.find_opt ((k * 31) land 4095) !m)) !m
  done;
  ignore (Sys.opaque_identity !m)

(* One timed run of the kernel. *)
let kernel_s () =
  Gc.minor ();
  let t0 = now () in
  kernel ();
  now () -. t0

(* The kernel's usual time on the tuning host (a 2-vCPU x86-64 VM), both
   between period-lp slots and back to back in the serve-open probe. *)
let kernel_usual_s = 4e-4

(* The factor that takes a time measured next to these kernel samples to
   the host's usual speed. *)
let speed_factor kernel_samples = kernel_usual_s /. trimmed_mean kernel_samples

(* A child process that times the kernel on request, so that the kernel
   can run on the CPU of another process: [main.exe --speed-probe] reads a
   count per line and answers each with that many kernel times. *)
let probe_main () =
  try
    while true do
      let n = int_of_string (input_line stdin) in
      let times = List.init n (fun _ -> Printf.sprintf "%.9f" (kernel_s ())) in
      print_endline (String.concat " " times)
    done
  with End_of_file -> exit 0

type probe = { probe_pid : int; requests : out_channel; answers : in_channel }

(* Run [f] with a probe started by [cmd]; always stop it and wait for it. *)
let with_probe cmd f =
  let req_r, req_w = Unix.pipe ~cloexec:true () and ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      (fun () -> Unix.create_process (List.hd cmd) (Array.of_list cmd) req_r ans_w Unix.stderr)
      ~finally:(fun () -> Unix.close req_r; Unix.close ans_w)
  in
  let p = { probe_pid = pid; requests = Unix.out_channel_of_descr req_w;
            answers = Unix.in_channel_of_descr ans_r } in
  Fun.protect (fun () -> f p) ~finally:(fun () ->
      close_out_noerr p.requests;
      close_in_noerr p.answers;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))

let probe_samples p n =
  output_string p.requests (string_of_int n ^ "\n");
  flush p.requests;
  match input_line p.answers with
  | exception End_of_file -> fail "the speed probe exited"
  | line -> Array.of_list (List.map float_of_string (String.split_on_char ' ' line))

(* {1 Process counters} *)

(* Peak resident set size of a live process, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> fail "cannot read %s" path
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      (match r with Some mb -> mb | None -> fail "no VmHWM line in %s" path)

let self_peak_rss_mb () = peak_rss_mb "self"

(* CPU time of a live process in seconds, from the nanoseconds it has run
   by /proc/PID/schedstat. *)
let cpu_s pid =
  let path = Printf.sprintf "/proc/%s/schedstat" pid in
  match open_in path with
  | exception Sys_error _ -> fail "cannot read %s" path
  | ic ->
      let line = input_line ic in
      close_in ic;
      Scanf.sscanf line "%f" (fun ns -> ns /. 1e9)

type gc_delta = { minor_words : float; major_collections : int }

let with_gc f =
  let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = f () in
  ( r,
    { minor_words = Gc.minor_words () -. m0;
      major_collections = (Gc.quick_stat ()).Gc.major_collections - c0 } )

(* Logged warnings and errors. The schedulers log a solver failure as a
   warning before treating it as a rejection, so this is how the benchmark
   counts failed operations it cannot otherwise see. *)
let warnings = ref 0

let install_log_counter () =
  Logs.set_level (Some Logs.Warning);
  Logs.set_reporter
    { Logs.report =
        (fun src level ~over k msgf ->
          (match level with Logs.Warning | Logs.Error -> incr warnings | _ -> ());
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kfprintf
                (fun ppf ->
                  Format.pp_print_newline ppf ();
                  over ();
                  k ())
                Format.err_formatter
                ("%s: " ^^ fmt)
                (Logs.Src.name src))) }

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let histogram_mean name =
  let h = Obs.Metrics.histogram name in
  let n = Obs.Metrics.histogram_count h in
  if n = 0 then 0. else Obs.Metrics.histogram_sum h /. float_of_int n

(* {1 Layer timers} *)

type timer = {
  span : string;
  mutable calls : int;
  mutable sec : float;
  mutable self : float;  (* [sec] minus the time of [inner] timers *)
}

let timer span = { span; calls = 0; sec = 0.; self = 0. }

(* Time one call; [inner] timers that run inside it are subtracted from
   its self time. *)
let timed ?(inner = []) t f =
  let inner_sec () = List.fold_left (fun acc i -> acc +. i.sec) 0. inner in
  let sp = Obs.Span.begin_ t.span in
  let i0 = inner_sec () in
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let dt = now () -. t0 in
      Obs.Span.end_ sp;
      t.calls <- t.calls + 1;
      t.sec <- t.sec +. dt;
      t.self <- t.self +. dt -. (inner_sec () -. i0))

let mean_self t = if t.calls = 0 then 0. else t.self /. float_of_int t.calls

(* The registered scheduler behind a timing shell that delegates every
   capability, so engine and session self times can exclude it. *)
type sched_timers = { schedule : timer; admit : timer }

let sched_timers () =
  { schedule = timer "bench.sched.schedule"; admit = timer "bench.sched.admit" }

let sched_inner st = [ st.schedule; st.admit ]

let timed_scheduler st inner =
  let module S = Postcard.Scheduler in
  let admit =
    Option.map
      (fun admit ctx file -> timed st.admit (fun () -> admit ctx file))
      (S.admit inner)
  in
  S.create ~name:(S.name inner) ~fluid:(S.fluid inner) ?admit
    ~reset:(fun () -> S.reset inner)
    (fun ctx files -> timed st.schedule (fun () -> S.schedule inner ctx files))

(* {1 Traced passes} *)

type traced = {
  profile : Obs.Profile.t;
  events : Obs.Trace_reader.event list;
}

(* Run [f] with spans on and the trace kept in memory, then pair the spans
   into the self-time table. The balance check of [Obs.Profile] is a
   gate: begins must equal ends and self times must partition the root
   spans. *)
let with_trace f =
  let lines = ref [] in
  Obs.Trace.set_callback (fun l -> lines := l :: !lines);
  Obs.Span.set_enabled true;
  let r =
    Fun.protect f ~finally:(fun () ->
        Obs.Span.set_enabled false;
        Obs.Trace.close ())
  in
  let events =
    List.rev_map
      (fun l ->
        match Obs.Trace_reader.of_line (String.trim l) with
        | Ok e -> e
        | Error msg -> fail "trace line rejected by the reader: %s" msg)
      !lines
  in
  lines := [];
  let profile = Obs.Profile.of_events events in
  (match Obs.Profile.balance profile with
   | Ok () -> ()
   | Error msg -> fail "span profile does not balance: %s" msg);
  (r, { profile; events })

let self_ms tr name =
  match List.find_opt (fun r -> r.Obs.Profile.name = name) tr.profile.Obs.Profile.rows with
  | Some r -> r.Obs.Profile.self_ms
  | None -> 0.

(* Integer field summed over the trace points named [name]. *)
let sum_points tr name field =
  List.fold_left
    (fun acc e ->
      if e.Obs.Trace_reader.kind = Obs.Trace_reader.Point && e.Obs.Trace_reader.name = name
      then acc + Option.value ~default:0 (Obs.Trace_reader.int_field e field)
      else acc)
    0 tr.events

let count_points tr name =
  List.length
    (List.filter
       (fun e -> e.Obs.Trace_reader.kind = Obs.Trace_reader.Point && e.Obs.Trace_reader.name = name)
       tr.events)

(* {1 Results} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * string) list;
      (* Counters and settings printed beside the timings. *)
}

let count_points_where tr name field value =
  List.length
    (List.filter
       (fun e ->
         e.Obs.Trace_reader.kind = Obs.Trace_reader.Point
         && e.Obs.Trace_reader.name = name
         && Obs.Trace_reader.str_field e field = Some value)
       tr.events)

(* The LP, LU and formulation layers of one traced pass: kernel and phase
   self times from the span table, effort counts from the [lp.solve]
   trace points and the LU metrics. *)
let lp_layers tr =
  let solves = count_points tr "lp.solve" in
  let pivots = sum_points tr "lp.solve" "iterations" in
  let rows = sum_points tr "lp.solve" "rows" in
  let per_solve x = if solves = 0 then 0. else float_of_int x /. float_of_int solves in
  [ ("lp.btran_ms", self_ms tr "lp.btran");
    ("lp.ftran_ms", self_ms tr "lp.ftran");
    ("lp.ratio_test_ms", self_ms tr "lp.ratio_test");
    ("lp.pricing_ms", self_ms tr "lp.pricing");
    ("simplex.pivots", float_of_int pivots);
    ("simplex.phase1_pivots", float_of_int (sum_points tr "lp.solve" "phase1_pivots"));
    ("simplex.dual_pivots", float_of_int (sum_points tr "lp.solve" "dual_pivots"));
    ("simplex.pivots_per_row",
     if rows = 0 then 0. else float_of_int pivots /. float_of_int rows);
    ("simplex.dual_reopt_share",
     per_solve (count_points_where tr "lp.solve" "warm" "dual_reopt"));
    ("simplex.warm_fell_back",
     float_of_int (count_points_where tr "lp.solve" "warm" "fell_back"));
    ("lp.phase1_ms", self_ms tr "lp.phase1");
    ("lp.phase2_ms", self_ms tr "lp.phase2");
    ("lp.dual_ms", self_ms tr "lp.dual");
    ("lu.factorizations", float_of_int (counter "lu.factorizations"));
    ("lu.factorize_ms", self_ms tr "lu.factorize");
    ("lu.fill_ratio", histogram_mean "lu.fill_ratio");
    ("core.formulate_ms", self_ms tr "core.formulate");
    ("core.extract_ms", self_ms tr "core.extract");
    ("lp.rows", per_solve rows);
    ("lp.cols", per_solve (sum_points tr "lp.solve" "cols")) ]

let gc_layers (g : gc_delta) =
  [ ("gc.minor_words", g.minor_words);
    ("gc.major_collections", float_of_int g.major_collections) ]

(* Tracing must not change the computation: the traced pass repeats the
   untraced pass's pivots exactly. *)
let check_pivots ~untraced tr =
  let traced = sum_points tr "lp.solve" "iterations" in
  if traced <> untraced then
    fail "traced pass took %d pivots, untraced pass %d" traced untraced

(* The spans whose self times the LP, LU, formulation and scheduler
   metrics report. [sched.schedule_ms] times the whole call, so the
   scheduler's own spans count as reported by it. *)
let lp_spans =
  [ "lp.btran"; "lp.ftran"; "lp.ratio_test"; "lp.pricing"; "lp.phase1"; "lp.phase2";
    "lp.dual"; "lu.factorize"; "core.formulate"; "core.extract"; "sched.schedule";
    "bench.sched.schedule" ]

(* The engine's own spans inside a timed [Engine.step], [Engine.offer] or
   [Session.tick]: the self times [engine.step_ms] and [session.tick_ms]
   report. *)
let engine_spans = [ "sim.slot"; "sim.admit"; "sim.commit"; "sim.strand"; "sim.complete" ]

(* At most this share of a traced pass may lie outside the spans whose
   self times the per-layer metrics report. *)
let unattributed_limit = 0.15

(* The per-layer self times must account for the traced pass: its wall
   time minus the self times of [spans] (the root span's own time and
   every span no metric reports, such as [lp.solve] or [core.solve],
   stay outside) must be at most [unattributed_limit] of it. Returns that
   unattributed share. *)
let check_attribution tr ~wall_s spans =
  let wall_ms = 1000. *. wall_s in
  let reported = List.fold_left (fun acc s -> acc +. self_ms tr s) 0. spans in
  let share = (wall_ms -. reported) /. wall_ms in
  if share > unattributed_limit then begin
    let others =
      List.filter (fun r -> not (List.mem r.Obs.Profile.name spans)) tr.profile.Obs.Profile.rows
      |> List.map (fun r -> Printf.sprintf "%s %.1f ms" r.Obs.Profile.name r.Obs.Profile.self_ms)
    in
    fail "%.1f%% of the %.3f s traced pass is in no reported per-layer time (limit %g%%): %s"
      (100. *. share) wall_s (100. *. unattributed_limit) (String.concat ", " others)
  end;
  share
