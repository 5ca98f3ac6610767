(* period-lp: charging periods of the paper's Fig. 4 traffic (complete
   graph, a_ij ~ U[1,10), c = 100 GB, 1..20 files per slot of U[10,100) GB
   with deadlines U{1..3} and the urgent-size cap) on 8 datacenters, run
   through the registered [postcard] scheduler: one LP per slot, warm
   started from the previous slot's basis. The LP and LU do almost all of
   the work; the serve code is idle.

   A round simulates [periods] independent 100-slot periods, and a run
   repeats rounds while its time allows. One period is too little work to
   measure: a handful of slots carry over half of its time (cold and
   repaired solves), so a single period's time moves by a quarter from one
   seed to the next. How much a seed's periods differ from another's is
   set by how many distinct periods a run has, not by how often it repeats
   them, so a round has as many as fit in a run. *)

module Engine = Sim.Engine
module Workload = Sim.Workload
open Measure

let nodes = 8
let capacity = 100.
let slots = 100
let periods = 32

(* The traced run does a round twice, once with spans on, at up to 1.7x
   the time: it takes the first half of the periods. *)
let traced_periods = 16

let spec =
  { (Workload.paper_spec ~nodes ~files_max:20 ~max_deadline:3) with
    Workload.urgent_size_cap = Some capacity }

(* One fixed network; the seed draws the traffic. Drawing the prices per
   seed too would double the seed-to-seed spread of the bill. *)
let network () =
  Netgraph.Topology.complete ~n:nodes ~rng:(Prelude.Rng.of_int 7919)
    ~cost_lo:1. ~cost_hi:10. ~capacity

let traffic seed =
  let rng = Prelude.Rng.of_int seed in
  Array.init periods (fun _ ->
      let w = Workload.create spec (Prelude.Rng.split rng) in
      Array.init slots (fun slot -> Workload.arrivals w ~slot))

type timers = { sched : sched_timers; step : timer }

let new_timers () = { sched = sched_timers (); step = timer "bench.engine.step" }

let start_period timers base =
  let scheduler =
    timed_scheduler timers.sched (Postcard.Scheduler.make_exn "postcard")
  in
  Engine.init
    (Engine.make ~base ~scheduler ~workload:(Workload.pushable ()) ~slots ())

let final_bill (o : Engine.outcome) = o.Engine.cost_series.(slots - 1)

(* Gates: every offered byte is delivered, rejected or lost, and the bill
   recomputed from the committed per-link volumes equals the reported
   one. *)
let check base (o : Engine.outcome) =
  let accounted =
    o.Engine.delivered_volume +. o.Engine.rejected_volume +. o.Engine.lost_volume
  in
  if not (close_to o.Engine.offered_volume accounted) then
    fail "period-lp: offered %.6f GB but delivered + rejected + lost = %.6f GB"
      o.Engine.offered_volume accounted;
  let bill =
    Netgraph.Graph.fold_arcs base ~init:0. ~f:(fun acc a ->
        acc
        +. a.Netgraph.Graph.cost
           *. Array.fold_left Float.max 0. o.Engine.link_volumes.(a.Netgraph.Graph.id))
  in
  if not (close_to bill (final_bill o)) then
    fail "period-lp: bill from link volumes %.6f <> reported %.6f" bill
      (final_bill o)

type round = {
  outcomes : Engine.outcome array;
  slot_s : float array;  (* every slot of every period, in order *)
  scaled_slot_s : float array;  (* the same at the host's usual speed *)
  scaled_setup_s : float array;  (* set-up samples at the host's usual speed *)
  factors : float array;  (* each period's speed factor *)
  period_pivots : int array;
  lu_factorizations : int;
  gc : gc_delta;
}

let costs r = Array.map (fun o -> o.Engine.cost_series) r.outcomes
let pivots r = Array.fold_left ( + ) 0 r.period_pivots

(* Set-up is sampled this many times before every period of a timed run,
   so its median spans the whole run rather than one moment of it. *)
let setup_per_period = 10

(* One round: every period once, each on a fresh engine. A timed round
   (one given [setup]) times [setup] before each period, and the host-speed
   kernel after each set-up sample and each slot; each period's times are
   scaled by the speed factor of its own kernel samples. *)
let run_round ?setup timers base traffic =
  Obs.Metrics.reset ();
  let timed_round = Option.is_some setup in
  let np = Array.length traffic in
  let m = if timed_round then setup_per_period else 0 in
  let slot_s = Array.make (np * slots) 0. and setup_s = Array.make (np * m) 0. in
  let kernel_samples = Array.make (np * (slots + m)) 0. in
  let period_pivots = Array.make np 0 in
  let sample_kernel k j = if timed_round then kernel_samples.((k * (slots + m)) + j) <- kernel_s () in
  let outcomes, gc =
    with_gc (fun () ->
        Array.mapi
          (fun k arrivals ->
            for j = 0 to m - 1 do
              let t0 = now () in
              Option.iter (fun f -> f ()) setup;
              setup_s.((k * m) + j) <- now () -. t0;
              sample_kernel k (slots + j)
            done;
            let engine = start_period timers base in
            Array.iteri
              (fun i arrivals ->
                let t0 = now () in
                ignore
                  (timed ~inner:(sched_inner timers.sched) timers.step (fun () ->
                       Engine.step engine ~arrivals));
                slot_s.((k * slots) + i) <- now () -. t0;
                sample_kernel k i)
              arrivals;
            let o = Engine.drain engine in
            period_pivots.(k) <- counter "simplex.pivots" - Array.fold_left ( + ) 0 period_pivots;
            o)
          traffic)
  in
  Array.iter (check base) outcomes;
  let factors =
    Array.init np (fun k ->
        if timed_round then speed_factor (Array.sub kernel_samples (k * (slots + m)) (slots + m))
        else 1.)
  in
  { outcomes;
    slot_s;
    scaled_slot_s = Array.mapi (fun i t -> t *. factors.(i / slots)) slot_s;
    scaled_setup_s = Array.mapi (fun i t -> t *. factors.(i / m)) setup_s;
    factors;
    period_pivots;
    lu_factorizations = counter "lu.factorizations";
    gc }

(* Rounds per run: one, then more while the time allows. *)
let max_rounds = 12

let tail_pct = 90.

let run ~seed ~seconds =
  let timers = new_timers () in
  (* Set-up: draw the network and the traffic, start a period. *)
  let setup () = ignore (start_period timers (network ()), traffic seed) in
  let base = network () and traffic = traffic seed in
  let round () = run_round ~setup timers base traffic in
  let start = now () in
  let first = round () in
  (* The peak of one round: later rounds only add heap fragmentation, and
     how many of them fit in the time depends on the host's speed. *)
  let rss_mb = self_peak_rss_mb () in
  let rec more acc last_s =
    if List.length acc < max_rounds && now () -. start +. last_s <= seconds then begin
      let t0 = now () in
      let acc = round () :: acc in
      more acc (now () -. t0)
    end
    else List.rev acc
  in
  let rs = more [ first ] (now () -. start) in
  (* The simulation is deterministic: every round, and a last run of the
     first period, repeat the first round's bills and pivots. *)
  let again = run_round timers base [| traffic.(0) |] in
  if costs again <> [| (costs first).(0) |] || again.period_pivots <> [| first.period_pivots.(0) |]
  then fail "period-lp: a repeated period disagrees with its first run";
  List.iter
    (fun r ->
      if costs r <> costs first || r.period_pivots <> first.period_pivots then
        fail "period-lp: repeated rounds over one seed disagree")
    rs;
  (* Every slot of every round, pooled: each round weighs every slot
     once, so the statistics do not depend on how many rounds fit in the
     time. *)
  let pool f = Array.concat (List.map (fun r -> Array.map (( *. ) 1000.) (f r)) rs) in
  let slot_ms = pool (fun r -> r.scaled_slot_s) and raw_ms = pool (fun r -> r.slot_s) in
  let n = Array.length slot_ms in
  let total_ms a = Array.fold_left ( +. ) 0. a in
  let factors = Array.concat (List.map (fun r -> r.factors) rs) in
  let sum f = Array.fold_left (fun acc o -> acc +. f o) 0. first.outcomes in
  let delivered = sum (fun o -> o.Engine.delivered_volume) in
  let offered = sum (fun o -> o.Engine.offered_volume) in
  let files f = string_of_int (int_of_float (sum (fun o -> float_of_int (f o)))) in
  { attempted = n;
    failed = !warnings;
    metrics =
      [ m "setup_s" "s" (median (Array.concat (List.map (fun r -> r.scaled_setup_s) rs)));
        m "peak_rss_mb" "MB" rss_mb;
        m "op_ms_p50" "ms" (median slot_ms);
        m "op_ms_tail" "ms" (percentile slot_ms tail_pct);
        m "ops_per_s" "1/s" (1000. *. float_of_int n /. total_ms slot_ms);
        m "cost_per_interval" "cost" (sum Engine.average_cost /. float_of_int periods);
        m "cost_per_delivered_gb" "cost/GB" (sum final_bill /. delivered);
        m "served_share" "ratio" (delivered /. offered) ];
    notes =
      [ ("op", "one slot: Engine.step of an 8-DC period");
        ("timings", "at the host's usual speed (see measure.ml)");
        ("speed_factor",
         Printf.sprintf "median %.3f, min %.3f, max %.3f over %d periods" (median factors)
           (Array.fold_left Float.min infinity factors) (Array.fold_left Float.max 0. factors)
           (Array.length factors));
        ("unscaled",
         Printf.sprintf "op_ms_p50 %.4f  op_ms_tail %.4f  ops_per_s %.3f" (median raw_ms)
           (percentile raw_ms tail_pct) (1000. *. float_of_int n /. total_ms raw_ms));
        ("period_s",
         Printf.sprintf "%.4f (mean over %d rounds of %d periods)"
           (total_ms slot_ms /. 1000. /. float_of_int (List.length rs * periods)) (List.length rs) periods);
        ("op_ms_tail",
         Printf.sprintf "p%g of %d slot times, %d beyond" tail_pct n
           (n - 1 - Prelude.Stats.percentile_rank n tail_pct));
        ("setup_s", Printf.sprintf "median of %d samples" (List.length rs * periods * setup_per_period));
        ("simplex.pivots", string_of_int (pivots first));
        ("lu.factorizations", string_of_int first.lu_factorizations);
        ("gc.minor_words", Printf.sprintf "%.0f (first round, set-up samples included)" first.gc.minor_words);
        ("files_offered", files (fun o -> o.Engine.total_files));
        ("files_rejected", files (fun o -> o.Engine.rejected_files));
        ("rejected_share", Printf.sprintf "%.6f" (1. -. (delivered /. offered))) ] }

let run_traced ~seed =
  let base = network () and traffic = Array.sub (traffic seed) 0 traced_periods in
  let timers = new_timers () in
  let t0 = now () in
  let p = run_round timers base traffic in
  let untraced_s = now () -. t0 in
  let (p', traced_s), tr =
    with_trace (fun () ->
        let t1 = now () in
        let p' =
          Obs.Span.with_ "bench.pass" (fun () -> run_round (new_timers ()) base traffic)
        in
        (p', now () -. t1))
  in
  if costs p' <> costs p then
    fail "period-lp: the traced round disagrees with the untraced round";
  check_pivots ~untraced:(pivots p) tr;
  let unattributed =
    check_attribution tr ~wall_s:traced_s (("bench.engine.step" :: engine_spans) @ lp_spans)
  in
  ( { attempted = 2 * traced_periods * slots;
      failed = !warnings;
      metrics = [];
      notes =
        [ ("untraced_s", Printf.sprintf "%.4f" untraced_s);
          ("traced_s", Printf.sprintf "%.4f" traced_s) ] },
    lp_layers tr
    @ gc_layers p.gc
    @ [ ("sched.schedule_ms", 1000. *. mean_self timers.sched.schedule);
        ("sched.calls", float_of_int timers.sched.schedule.calls);
        ("engine.step_ms", 1000. *. mean_self timers.step);
        ("trace.overhead_ratio", traced_s /. untraced_s);
        ("trace.unattributed_share", unattributed) ] )
