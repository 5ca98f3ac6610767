(* Dual-simplex re-optimization: when only the RHS or bounds move, the
   carried basis stays dual-feasible and the solver must reach the new
   optimum through the dual path — zero phase-1 pivots, zero repair
   rounds — while agreeing with a cold primal solve on the outcome class
   and (to 1e-6) on the objective. An infeasible re-solve ends on a dual
   ray, accepted only when the Farkas verifier proves it against the
   original data; the verifier has its own hand-built cases. The property
   tests replay randomized online instances, including mid-run link
   outages, and tightened one-epoch programs checked against the dense
   oracle; the engine test drives a real post-strand re-plan through a
   trace sink. *)

module Model = Lp.Model
module Status = Lp.Status
module Graph = Netgraph.Graph
module File = Postcard.File
module Formulate = Postcard.Formulate
module Trace = Obs.Trace
module Reader = Obs.Trace_reader
module Gen = QCheck2.Gen

let to_alcotest = QCheck_alcotest.to_alcotest

let get_opt = function
  | Status.Optimal s -> s
  | other ->
      Alcotest.failf "expected optimal, got %a" Status.pp_outcome other

let check_pivot_split (s : Status.solution) =
  let st = s.Status.stats in
  Alcotest.(check int) "phase1 + phase2 + dual = iterations"
    s.Status.iterations
    (st.Status.phase1_pivots + st.Status.phase2_pivots
    + st.Status.dual_pivots)

(* The sample model of the warm-start suite, with a movable Ge RHS and a
   movable upper bound: both perturbations leave the carried basis
   dual-feasible (costs untouched), so they are pure dual territory. *)
let model ~demand ~x_ub =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:2. ~ub:x_ub () in
  let y = Model.add_var m ~obj:3. () in
  let z = Model.add_var m ~obj:1. ~ub:4. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.); (z, 1.) ] Model.Ge demand);
  ignore (Model.add_constraint m [ (x, 1.); (y, -1.) ] Model.Eq 1.);
  ignore (Model.add_constraint m [ (y, 2.); (z, 1.) ] Model.Le 8.);
  m

let carried_basis () =
  let cold = get_opt (Lp.Simplex.solve (model ~demand:5. ~x_ub:6.)) in
  match cold.Status.basis with
  | Some b -> b
  | None -> Alcotest.fail "revised simplex returned no basis"

let test_rhs_perturbation_takes_dual_path () =
  let basis = carried_basis () in
  (* Raise the demand: the old optimum goes primal-infeasible but the
     reduced costs are untouched, so the dual simplex must finish it. *)
  let perturbed = model ~demand:9. ~x_ub:6. in
  let cold = get_opt (Lp.Simplex.solve perturbed) in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:basis perturbed) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  let st = warm.Status.stats in
  Alcotest.(check bool)
    (Format.asprintf "dual re-opt taken (got %a)" Status.pp_warm_start_outcome
       st.Status.warm_start)
    true
    (st.Status.warm_start = Status.Dual_reopt);
  Alcotest.(check int) "zero phase-1 pivots" 0 st.Status.phase1_pivots;
  check_pivot_split warm

let test_dual_pivots_fix_bound_violation () =
  (* min x + 2y, x + y >= d, x <= 4, y <= 4. At d = 2 the optimal basis
     has x basic at 2; raising d to 6 pushes x past its upper bound, so
     the dual simplex must pivot x out and y in — at least one genuine
     dual pivot, not just a recompute. *)
  let build d =
    let m = Model.create Model.Minimize in
    let x = Model.add_var m ~obj:1. ~ub:4. () in
    let y = Model.add_var m ~obj:2. ~ub:4. () in
    ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Ge d);
    m
  in
  let cold0 = get_opt (Lp.Simplex.solve (build 2.)) in
  let basis = Option.get cold0.Status.basis in
  let perturbed = build 6. in
  let cold = get_opt (Lp.Simplex.solve perturbed) in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:basis perturbed) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  let st = warm.Status.stats in
  Alcotest.(check bool) "dual re-opt taken" true
    (st.Status.warm_start = Status.Dual_reopt);
  Alcotest.(check int) "zero phase-1 pivots" 0 st.Status.phase1_pivots;
  Alcotest.(check bool)
    (Printf.sprintf "dual pivots did the work (%d)" st.Status.dual_pivots)
    true
    (st.Status.dual_pivots > 0);
  check_pivot_split warm

let test_bound_tightening_takes_dual_path () =
  let basis = carried_basis () in
  (* Clamp x below its optimal value: a bound move, again dual work. *)
  let perturbed = model ~demand:5. ~x_ub:1.5 in
  let cold = get_opt (Lp.Simplex.solve perturbed) in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:basis perturbed) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  let st = warm.Status.stats in
  Alcotest.(check bool) "dual re-opt taken" true
    (st.Status.warm_start = Status.Dual_reopt);
  Alcotest.(check int) "zero phase-1 pivots" 0 st.Status.phase1_pivots;
  check_pivot_split warm

let test_dual_reopt_flag_forces_primal () =
  let basis = carried_basis () in
  let perturbed = model ~demand:9. ~x_ub:6. in
  let cold = get_opt (Lp.Simplex.solve perturbed) in
  let warm =
    get_opt (Lp.Simplex.solve ~warm_start:basis ~dual_reopt:false perturbed)
  in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  let st = warm.Status.stats in
  Alcotest.(check bool) "primal warm path taken" true
    (match st.Status.warm_start with
     | Status.Warm_accepted _ | Status.Warm_fell_back -> true
     | Status.No_warm_start | Status.Dual_reopt -> false);
  Alcotest.(check int) "no dual pivots on the primal path" 0
    st.Status.dual_pivots

(* The [lp.solve] trace points [f] emits, in order. *)
let traced_solves f =
  let lines = ref [] in
  Trace.set_callback (fun line -> lines := line :: !lines);
  let result = Fun.protect ~finally:Trace.close f in
  let solves =
    List.rev !lines
    |> List.filter_map (fun line ->
           match Reader.of_line line with
           | Error msg -> Alcotest.failf "invalid trace line: %s" msg
           | Ok ev ->
               if ev.Reader.kind = Reader.Point && ev.Reader.name = "lp.solve"
               then Some ev
               else None)
  in
  (result, solves)

let test_infeasible_after_perturbation () =
  (* Tighten until the program is infeasible: the dual simplex stops on a
     ray, and the ray verified against the original data is the
     certificate — no phase 1. *)
  let basis = carried_basis () in
  let impossible = model ~demand:50. ~x_ub:6. in
  let outcome, solves =
    traced_solves (fun () -> Lp.Simplex.solve ~warm_start:basis impossible)
  in
  Alcotest.(check bool) "still infeasible from a carried basis" true
    (outcome = Status.Infeasible);
  match solves with
  | [ ev ] ->
      Alcotest.(check (option string)) "verdict from the dual path"
        (Some "dual_reopt") (Reader.str_field ev "warm");
      Alcotest.(check (option int)) "zero phase-1 pivots" (Some 0)
        (Reader.int_field ev "phase1_pivots");
      Alcotest.(check (option string)) "proved by a Farkas ray"
        (Some "farkas") (Reader.str_field ev "infeasible_by");
      Alcotest.(check (option int)) "no abandoned dual attempt" (Some 0)
        (Reader.int_field ev "dual_attempt_pivots")
  | evs -> Alcotest.failf "expected one lp.solve point, got %d" (List.length evs)

let test_unverified_ray_takes_primal_ladder () =
  (* min x + z, x in [0, 1], z >= 0, 1000 x + 1e-6 z >= d. From the
     d = 500 basis (x basic), d = 2000 pushes x past its bound; z's
     pivot-row entry (1e-9) is under the pivot tolerance, so the dual
     stops on a ray. The ray needs z's infinite upper bound, fails the
     Farkas test, and the primal ladder finds the feasible z = 1e9. *)
  let build d =
    let m = Model.create Model.Minimize in
    let x = Model.add_var m ~obj:1. ~ub:1. () in
    let z = Model.add_var m ~obj:1. () in
    ignore (Model.add_constraint m [ (x, 1000.); (z, 1e-6) ] Model.Ge d);
    m
  in
  let basis = Option.get (get_opt (Lp.Simplex.solve (build 500.))).Status.basis in
  let cold = get_opt (Lp.Simplex.solve (build 2000.)) in
  let warm, solves =
    traced_solves (fun () -> Lp.Simplex.solve ~warm_start:basis (build 2000.))
  in
  Alcotest.(check (float 1e-3))
    "feasible, same objective as cold" cold.Status.objective
    (get_opt warm).Status.objective;
  match solves with
  | [ ev ] ->
      Alcotest.(check bool) "solved by the primal ladder" true
        (match Reader.str_field ev "warm" with
         | Some ("accepted" | "fell_back") -> true
         | _ -> false);
      Alcotest.(check (option string)) "no infeasibility proof" (Some "none")
        (Reader.str_field ev "infeasible_by")
  | evs -> Alcotest.failf "expected one lp.solve point, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* The Farkas verifier on hand-built rays. For [A x = b, lb <= x <= ub]
   and row multipliers [y], [y.b] must fall outside the range of
   [sum_j (y.A_j) x_j] over the box. *)

let certifies m y = Lp.Simplex.farkas_certifies (Lp.Standard_form.of_model m) y

(* x in [0, 1] and [x >= rhs]: standard form [x + s = rhs], s <= 0. *)
let capped_demand rhs =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1. ~ub:1. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge rhs);
  m

let test_farkas_accepts_ray () =
  (* y = 1: y.b = 2 but x + s <= 1 + 0 over the box. *)
  Alcotest.(check bool) "y = [1] proves x <= 1, x >= 2 infeasible" true
    (certifies (capped_demand 2.) [| 1. |]);
  Alcotest.(check bool) "the negated ray proves it from below" true
    (certifies (capped_demand 2.) [| -1. |])

let test_farkas_rejects_feasible () =
  Alcotest.(check bool) "no ray certifies a feasible program" false
    (certifies (capped_demand 0.5) [| 1. |]);
  Alcotest.(check bool) "the zero ray certifies nothing" false
    (certifies (capped_demand 2.) [| 0. |])

let test_farkas_rejects_within_tolerance () =
  (* Violated by 1e-8, under 1e-6 * (1 + 1 + 1): not a certificate. *)
  Alcotest.(check bool) "a violation inside the tolerance" false
    (certifies (capped_demand (1. +. 1e-8)) [| 1. |]);
  Alcotest.(check bool) "one just outside it" true
    (certifies (capped_demand (1. +. 1e-5)) [| 1. |])

let test_farkas_rejects_infinite_bound () =
  (* x in [0, 1], z >= 0: row 0 is x >= 2 (infeasible on its own), row 1
     is z >= 0. y = [1; 0] certifies; y = [1; 1] adds z's coefficient,
     whose upper bound is infinite, so that side of the interval is
     unbounded and the ray proves nothing. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1. ~ub:1. () in
  let z = Model.add_var m ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 2.);
  ignore (Model.add_constraint m [ (z, 1.) ] Model.Ge 0.);
  Alcotest.(check bool) "row 0 alone certifies" true (certifies m [| 1.; 0. |]);
  Alcotest.(check bool) "a ray needing z's infinite bound is rejected" false
    (certifies m [| 1.; 1. |])

(* ------------------------------------------------------------------ *)
(* Property: on randomized multi-slot online instances the dual-warm
   pipeline agrees with the cold one everywhere, and every solve that
   reports [Dual_reopt] spent zero phase-1 pivots. *)

(* [outage] kills one link's residual capacity from slot [cut] on — the
   mid-run RHS shock the dual path exists for. *)
let replay_instance ~seed ~nodes ~slots ~files_max ~outage =
  let rng = Prelude.Rng.of_int (seed + 1) in
  let base =
    Netgraph.Topology.complete ~n:nodes ~rng ~cost_lo:1. ~cost_hi:10.
      ~capacity:30.
  in
  let dead_link, cut =
    match outage with
    | Some cut -> (Prelude.Rng.int rng (Graph.num_arcs base), cut)
    | None -> (-1, max_int)
  in
  let spec =
    { (Sim.Workload.paper_spec ~nodes ~files_max ~max_deadline:3) with
      Sim.Workload.size_min = 2.;
      size_max = 15.;
      deadlines = Sim.Workload.Uniform_deadline (2, 3) }
  in
  let workload = Sim.Workload.create spec (Prelude.Rng.of_int seed) in
  let ledger = Sim.Ledger.create ~base in
  let carried = ref None in
  let ok = ref true in
  for slot = 0 to slots - 1 do
    let files = Sim.Workload.arrivals workload ~slot in
    if files <> [] then begin
      let capacity ~link ~layer =
        if link = dead_link && slot + layer >= cut then 0.
        else Sim.Ledger.residual ledger ~link ~slot:(slot + layer)
      in
      let make () =
        Formulate.create ~base
          ~charged:(Sim.Ledger.charged_all ledger)
          ~capacity ~files ~epoch:slot ()
      in
      let cold, _ = Formulate.solve_with_info (make ()) in
      let warm, warm_info =
        Formulate.solve_with_info ?warm_start:!carried (make ())
      in
      let st = warm_info.Formulate.stats in
      if
        st.Status.warm_start = Status.Dual_reopt
        && st.Status.phase1_pivots > 0
      then ok := false;
      if
        warm_info.Formulate.iterations
        <> st.Status.phase1_pivots + st.Status.phase2_pivots
           + st.Status.dual_pivots
      then ok := false;
      (match (cold, warm) with
       | ( Formulate.Scheduled { objective = co; plan; _ },
           Formulate.Scheduled { objective = wo; _ } ) ->
           if abs_float (co -. wo) > 1e-6 then ok := false;
           Sim.Ledger.commit_plan ledger plan
       | Formulate.Infeasible, Formulate.Infeasible -> ()
       | _ -> ok := false);
      carried := warm_info.Formulate.basis
    end
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Property: a small one-epoch program is solved at full capacity, then
   re-solved from that basis with every link's capacity scaled by
   [factor] — small factors make it infeasible, large ones leave it
   feasible (over the generator, about 4 in 10 instances stay feasible
   and most of the rest end on a verified dual ray). The warm verdict
   (dual re-opt, Farkas ray or primal ladder) must equal the cold one and
   the dense oracle's. *)

let verdict_instance ~seed ~nodes ~files ~factor =
  let rng = Prelude.Rng.of_int (seed + 1) in
  let base =
    Netgraph.Topology.complete ~n:nodes ~rng ~cost_lo:1. ~cost_hi:10.
      ~capacity:10.
  in
  let files =
    List.init files (fun id ->
        let src = Prelude.Rng.int rng nodes in
        let dst = (src + 1 + Prelude.Rng.int rng (nodes - 1)) mod nodes in
        File.make ~id ~src ~dst
          ~size:(Prelude.Rng.float_range rng 1. 8.)
          ~deadline:(1 + Prelude.Rng.int rng 2)
          ~release:0)
  in
  let make scale =
    Formulate.create ~base
      ~charged:(Array.make (Graph.num_arcs base) 0.)
      ~capacity:(fun ~link ~layer:_ ->
        scale *. (Graph.arc base link).Graph.capacity)
      ~files ~epoch:0 ()
  in
  let _, full = Formulate.solve_with_info (make 1.) in
  let feasible = function
    | Formulate.Scheduled _ -> Some true
    | Formulate.Infeasible -> Some false
    | Formulate.Solver_failure _ -> None
  in
  let cold = feasible (Formulate.solve (make factor)) in
  let warm =
    feasible
      (fst (Formulate.solve_with_info ?warm_start:full.Formulate.basis
              (make factor)))
  in
  let dense =
    match Lp.Dense_simplex.solve (Formulate.model (make factor)) with
    | Status.Optimal _ -> Some true
    | Status.Infeasible -> Some false
    | Status.Unbounded | Status.Iteration_limit -> None
  in
  cold <> None && warm = cold && dense = cold

let prop_warm_verdict_equals_cold_and_dense =
  QCheck2.Test.make
    ~name:"tightened programs: warm verdict = cold verdict = dense verdict"
    ~count:40
    Gen.(
      let* seed = int_range 0 9999 in
      let* nodes = int_range 3 4 in
      let* files = int_range 1 3 in
      let* factor = oneofl [ 0.02; 0.1; 0.3; 0.6; 1. ] in
      return (seed, nodes, files, factor))
    (fun (seed, nodes, files, factor) ->
      verdict_instance ~seed ~nodes ~files ~factor)

let gen_instance =
  Gen.(
    let* seed = int_range 0 9999 in
    let* nodes = int_range 3 5 in
    let* slots = int_range 2 4 in
    let* files_max = int_range 1 3 in
    return (seed, nodes, slots, files_max))

let prop_dual_equals_cold =
  QCheck2.Test.make ~name:"dual re-opt objective = cold objective per epoch"
    ~count:40 gen_instance (fun (seed, nodes, slots, files_max) ->
      replay_instance ~seed ~nodes ~slots ~files_max ~outage:None)

let prop_dual_equals_cold_under_outage =
  QCheck2.Test.make
    ~name:"dual re-opt survives a mid-run link outage" ~count:40 gen_instance
    (fun (seed, nodes, slots, files_max) ->
      replay_instance ~seed ~nodes ~slots ~files_max
        ~outage:(Some (max 1 (slots / 2))))

(* ------------------------------------------------------------------ *)
(* Post-strand re-plan through the real engine: a revealed outage
   strands bytes mid-run, the engine re-offers them, and the scheduler's
   re-solve must keep the carried basis dual-feasible. Verified from the
   trace, the same channel the trace-summary reads. *)

let test_post_strand_replan_keeps_dual_basis () =
  (* A 12 GB file over the cheap capacity-5 direct link needs three of
     the four slots, so an outage covering slots 1..3 strands bytes no
     matter how the optimal plan placed them; the expensive relay
     0 -> 2 -> 1 keeps the re-offer feasible. *)
  let g = Graph.create ~n:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:5. ~cost:1. ());
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~capacity:10. ~cost:3. ());
  ignore (Graph.add_arc g ~src:2 ~dst:1 ~capacity:10. ~cost:3. ());
  let faults =
    match Sim.Faults.parse "link:0-1@1..3" with
    | Ok sc -> sc
    | Error msg -> Alcotest.failf "bad fault spec: %s" msg
  in
  let workload =
    Sim.Workload.scripted
      [ File.make ~id:0 ~src:0 ~dst:1 ~size:12. ~deadline:4 ~release:0 ]
  in
  let outcome, solves =
    traced_solves (fun () ->
        Sim.Engine.(
          run
            (make ~base:g
               ~scheduler:(Postcard.Postcard_scheduler.make ())
               ~workload ~slots:4 ~faults ())))
  in
  Alcotest.(check bool) "the outage stranded and re-planned a file" true
    (outcome.Sim.Engine.replanned_files >= 1);
  Alcotest.(check int) "two solves: admission, then the re-plan" 2
    (List.length solves);
  let replan = List.nth solves 1 in
  Alcotest.(check (option string)) "re-plan re-optimized via the dual simplex"
    (Some "dual_reopt")
    (Reader.str_field replan "warm");
  Alcotest.(check (option int)) "zero phase-1 pivots on the re-plan" (Some 0)
    (Reader.int_field replan "phase1_pivots");
  Alcotest.(check (option int)) "zero repair rounds on the re-plan" (Some 0)
    (Reader.int_field replan "repair_rounds")

(* ------------------------------------------------------------------ *)
(* The bench aggregates are recomputed from per-slot records; tampering
   with either side must be caught (satellite of the warm_accepted:0
   defect). *)

let test_bench_reconcile_detects_tampering () =
  let summary = Sim.Solver_bench.run ~nodes:4 ~slots:4 ~seed:7 () in
  (match Sim.Solver_bench.reconcile summary with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "honest summary failed to reconcile: %s" msg);
  let tampered =
    { summary with
      Sim.Solver_bench.warm_accepted = summary.Sim.Solver_bench.warm_accepted + 1
    }
  in
  Alcotest.(check bool) "inflated warm_accepted is caught" true
    (Result.is_error (Sim.Solver_bench.reconcile tampered));
  let zeroed = { summary with Sim.Solver_bench.dual_reopts = 0 } in
  Alcotest.(check bool) "zeroed dual_reopts is caught" true
    (summary.Sim.Solver_bench.dual_reopts = 0
    || Result.is_error (Sim.Solver_bench.reconcile zeroed))

let suite =
  [ Alcotest.test_case "RHS perturbation takes the dual path" `Quick
      test_rhs_perturbation_takes_dual_path;
    Alcotest.test_case "bound tightening takes the dual path" `Quick
      test_bound_tightening_takes_dual_path;
    Alcotest.test_case "dual pivots fix a bound violation" `Quick
      test_dual_pivots_fix_bound_violation;
    Alcotest.test_case "~dual_reopt:false forces the primal path" `Quick
      test_dual_reopt_flag_forces_primal;
    Alcotest.test_case "infeasible verdict survives the dual path" `Quick
      test_infeasible_after_perturbation;
    Alcotest.test_case "an unverified dual ray takes the primal ladder"
      `Quick test_unverified_ray_takes_primal_ladder;
    Alcotest.test_case "farkas: accepts a hand-built ray" `Quick
      test_farkas_accepts_ray;
    Alcotest.test_case "farkas: rejects rays on a feasible program" `Quick
      test_farkas_rejects_feasible;
    Alcotest.test_case "farkas: rejects a violation inside the tolerance"
      `Quick test_farkas_rejects_within_tolerance;
    Alcotest.test_case "farkas: rejects a ray needing an infinite bound"
      `Quick test_farkas_rejects_infinite_bound;
    Alcotest.test_case "post-strand re-plan keeps a dual-feasible basis"
      `Quick test_post_strand_replan_keeps_dual_basis;
    Alcotest.test_case "bench reconcile detects tampering" `Quick
      test_bench_reconcile_detects_tampering;
    to_alcotest prop_dual_equals_cold;
    to_alcotest prop_dual_equals_cold_under_outage;
    to_alcotest prop_warm_verdict_equals_cold_and_dense ]
