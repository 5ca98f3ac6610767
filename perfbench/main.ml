(* The repository benchmark: one workload per run, inputs drawn from
   --seed, outputs checked by correctness gates. The last line of standard
   output is one JSON object: the end-to-end metrics with --trace 0, the
   per-layer metrics of a separate traced run with --trace 1. A failed
   gate prints its reason on standard error and exits 2 without printing
   any numbers. See README.md in this directory. *)

open Measure

(* Must match "end_to_end" and "per_layer" in BENCHMARK.json. *)
let end_to_end =
  [ "setup_s"; "peak_rss_mb"; "op_ms_p50"; "op_ms_tail"; "ops_per_s";
    "cost_per_interval"; "cost_per_delivered_gb"; "served_share" ]

let per_layer =
  [ ("lp.btran_ms", "ms"); ("lp.ftran_ms", "ms"); ("lp.ratio_test_ms", "ms");
    ("lp.pricing_ms", "ms"); ("simplex.pivots", "count");
    ("simplex.phase1_pivots", "count"); ("simplex.dual_pivots", "count");
    ("simplex.pivots_per_row", "ratio"); ("simplex.dual_reopt_share", "ratio");
    ("simplex.warm_fell_back", "count"); ("lp.phase1_ms", "ms");
    ("lp.phase2_ms", "ms"); ("lp.dual_ms", "ms"); ("lu.factorizations", "count");
    ("lu.factorize_ms", "ms"); ("lu.fill_ratio", "ratio");
    ("core.formulate_ms", "ms");
    ("core.extract_ms", "ms"); ("lp.rows", "count"); ("lp.cols", "count");
    ("sched.admit_us", "us"); ("sched.schedule_ms", "ms");
    ("sched.calls", "count"); ("tier.fast_share", "ratio");
    ("tier.fallback_files", "count"); ("engine.step_ms", "ms");
    ("engine.offer_us", "us"); ("protocol.decode_us", "us");
    ("protocol.encode_us", "us"); ("protocol.lines_out_per_request", "count");
    ("protocol.bytes_out_per_request", "B"); ("session.submit_us", "us");
    ("session.tick_ms", "ms"); ("gc.minor_words", "words");
    ("gc.major_collections", "count"); ("gen.late_ms_p99", "ms");
    ("trace.overhead_ratio", "ratio"); ("trace.unattributed_share", "ratio") ]

let workloads = [ "period-lp"; "serve-open" ]

(* Layers a workload does not exercise report 0: their work is zero. *)
let layer_metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        invalid_arg ("unknown per-layer metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
    per_layer

let json_line r =
  let open Obs.Json in
  to_string
    (Obj
       [ ("correct", Bool true);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ( "metrics",
           Obj
             (List.map
                (fun x -> (x.name, Obj [ ("value", Float x.value); ("unit", Str x.unit_) ]))
                r.metrics) ) ])

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH [--serve-cpu CPU]\n\
   main.exe --speed-probe   (the host-speed probe; see measure.ml)"

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--speed-probe" then probe_main ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let serve_exe = ref "" and serve_cpu = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH postcard_serve executable");
      ("--serve-cpu", Arg.Set_string serve_cpu, "CPU run the daemon on this CPU (through taskset)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload; expected one of " ^ String.concat ", " workloads);
    exit 2
  end;
  install_log_counter ();
  Obs.Metrics.set_enabled true;
  let traced = !trace = 1 in
  let on_cpu = if !serve_cpu = "" then [] else [ "taskset"; "-c"; !serve_cpu ] in
  let cmd = on_cpu @ [ !serve_exe ] and probe = on_cpu @ [ Sys.executable_name; "--speed-probe" ] in
  match
    match (!workload, traced) with
    | "period-lp", false -> Period_lp.run ~seed:!seed ~seconds:!seconds
    | "period-lp", true ->
        let r, layers = Period_lp.run_traced ~seed:!seed in
        { r with metrics = layer_metrics layers }
    | _, false -> Serve_open.run ~cmd ~probe ~seed:!seed ~seconds:!seconds
    | _, true ->
        let r, layers = Serve_open.run_traced ~cmd ~seed:!seed in
        { r with metrics = layer_metrics layers }
  with
  | exception Gate msg ->
      prerr_endline ("perfbench: gate failed: " ^ msg);
      exit 2
  | r ->
      if (not traced)
         && List.map (fun x -> x.name) r.metrics <> end_to_end
      then invalid_arg "end-to-end metrics out of step with the declared list";
      Printf.printf "workload %s  seed %d  trace %d\n" !workload !seed !trace;
      List.iter (fun x -> Printf.printf "  %-32s %14.6f %s\n" x.name x.value x.unit_) r.metrics;
      List.iter (fun (k, v) -> Printf.printf "  %-32s %s\n" k v) r.notes;
      Printf.printf "env seed=%d ocaml=%s\n" !seed Sys.ocaml_version;
      print_endline (json_line r)
