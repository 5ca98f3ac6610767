(* Pivot-path pin: fixed warm re-solve sequences must reproduce their
   recorded effort counters and bills exactly. Each is a 6-DC, 8-slot run
   of the registered [postcard] scheduler, which solves one LP per slot
   from the carried basis, with admission drops (and so infeasible
   re-solves, Farkas rays and primal phase 1) on a throttled network. Any change
   to the basis kernels that alters a single floating-point operation
   on the pivot path moves a pivot choice somewhere in the sequence and
   fails this test, even when every objective still agrees within
   tolerance. The expected values were recorded on the tuple-array LU
   and dense column-wise pivot row that the flat kernels replaced. *)

module Trace = Obs.Trace
module Reader = Obs.Trace_reader

type effort = {
  solves : int;
  pivots : int;
  dual_attempt_pivots : int;
  refactorizations : int;
}

let run_traced ~capacity ~files_max =
  let lines = ref [] in
  Trace.set_callback (fun line -> lines := line :: !lines);
  let outcome =
    Fun.protect ~finally:Trace.close (fun () ->
        let rng = Prelude.Rng.of_int 7 in
        let base =
          Netgraph.Topology.complete ~n:6 ~rng ~cost_lo:1. ~cost_hi:10.
            ~capacity
        in
        let spec = Sim.Workload.paper_spec ~nodes:6 ~files_max ~max_deadline:3 in
        let workload = Sim.Workload.create spec (Prelude.Rng.of_int 11) in
        Sim.Engine.run
          (Sim.Engine.make ~base
             ~scheduler:(Postcard.Postcard_scheduler.make ())
             ~workload ~slots:8 ()))
  in
  let effort =
    List.fold_left
      (fun acc line ->
        match Reader.of_line line with
        | Error msg -> Alcotest.failf "invalid trace line: %s" msg
        | Ok ev when ev.Reader.kind = Reader.Point && ev.Reader.name = "lp.solve"
          ->
            let int name =
              match List.assoc_opt name ev.Reader.fields with
              | Some v -> (
                  match Obs.Json.to_int v with
                  | Some n -> n
                  | None -> Alcotest.failf "lp.solve field %s is not an int" name)
              | None -> Alcotest.failf "lp.solve lacks %s" name
            in
            { solves = acc.solves + 1;
              pivots = acc.pivots + int "iterations";
              dual_attempt_pivots =
                acc.dual_attempt_pivots + int "dual_attempt_pivots";
              refactorizations = acc.refactorizations + int "refactorizations" }
        | Ok _ -> acc)
      { solves = 0; pivots = 0; dual_attempt_pivots = 0; refactorizations = 0 }
      (List.rev !lines)
  in
  (outcome, effort)

let check_pinned ~capacity ~files_max ~solves ~pivots ~refactorizations
    ~rejected ~bill () =
  let outcome, e = run_traced ~capacity ~files_max in
  Alcotest.(check int) "solves" solves e.solves;
  Alcotest.(check int) "pivots" pivots e.pivots;
  Alcotest.(check int) "abandoned dual pivots" 0 e.dual_attempt_pivots;
  Alcotest.(check int) "refactorizations" refactorizations e.refactorizations;
  Alcotest.(check int) "rejected files" rejected outcome.Sim.Engine.rejected_files;
  (* The bill compared bit for bit, as a hexadecimal float. *)
  Alcotest.(check string) "final bill" bill
    (Printf.sprintf "%h" outcome.Sim.Engine.cost_series.(7))

let suite =
  [ Alcotest.test_case "6-DC/8-slot warm sequence is pinned" `Quick
      (check_pinned ~capacity:60. ~files_max:12 ~solves:26 ~pivots:2030
         ~refactorizations:76 ~rejected:19 ~bill:"0x1.747ca410ad294p+11");
    Alcotest.test_case "6-DC/8-slot sequence at c = 100 is pinned" `Quick
      (check_pinned ~capacity:100. ~files_max:20 ~solves:18 ~pivots:1914
         ~refactorizations:70 ~rejected:10 ~bill:"0x1.26b0f337873f7p+13") ]
