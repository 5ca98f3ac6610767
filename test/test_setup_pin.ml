(* Formulation pin: fixed 8-DC slot programs must rebuild to the same
   standard form, the same structural keys and the same extraction order,
   bit for bit. The simplex's pivot path follows column and row numbering,
   the CSC arrays, bounds and costs; the ledger adds a plan's volumes up in
   the order the plan lists them. So a set-up change that moves any of
   these moves bills in their last bits even when every objective still
   agrees. The digests were recorded on the list-based model and
   hash-table formulation that the flat set-up path replaced. *)

module File = Postcard.File
module Formulate = Postcard.Formulate
module Basis_map = Postcard.Basis_map
module Sf = Lp.Standard_form
module Csc = Sparselin.Csc

let nodes = 8

(* The period-lp network: complete graph, prices U[1,10), 100 GB links. *)
let network () =
  Netgraph.Topology.complete ~n:nodes ~rng:(Prelude.Rng.of_int 7919)
    ~cost_lo:1. ~cost_hi:10. ~capacity:100.

(* The first slot of a period-lp-style period, drawn with exactly 20
   files. *)
let first_slot_files () =
  let spec =
    { (Sim.Workload.paper_spec ~nodes ~files_max:20 ~max_deadline:3) with
      Sim.Workload.files_min = 20;
      urgent_size_cap = Some 100. }
  in
  let w = Sim.Workload.create spec (Prelude.Rng.of_int 1) in
  Sim.Workload.arrivals w ~slot:0

(* Drop the highest-rate file [k] times, breaking ties as
   [Scheduler.admit_greedy] does (the first of equal rates goes). *)
let rec drop_hardest k files =
  if k = 0 then files
  else
    let hardest =
      List.fold_left
        (fun best f -> if File.rate f > File.rate best then f else best)
        (List.hd files) files
    in
    drop_hardest (k - 1)
      (List.filter (fun f -> f.File.id <> hardest.File.id) files)

let ample ~link:_ ~layer:_ = 100.

(* A third of the links unlimited (their capacity rows vanish), a third
   throttled, a third down in layer 1 (their arcs get no variables). *)
let throttled ~link ~layer =
  match link mod 3 with
  | 0 -> infinity
  | 1 -> 60.
  | _ -> if layer = 1 then 0. else 100.

let program ~charged ~capacity files =
  Formulate.create ~base:(network ()) ~charged ~capacity ~files ~epoch:0
    ~tie_break:1e-7 ()

let no_charge () = Array.make (nodes * (nodes - 1)) 0.

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

let standard_form_digest p =
  let sf = Sf.of_model (Formulate.model p) in
  let buf = Buffer.create 65536 in
  Printf.bprintf buf "%d %d %b\n" sf.Sf.n_struct sf.Sf.n_rows
    sf.Sf.flip_objective;
  for j = 0 to Csc.ncols sf.Sf.a - 1 do
    Printf.bprintf buf "c%d:%d" j (Csc.col_nnz sf.Sf.a j);
    Csc.iter_col sf.Sf.a j (fun i v -> Printf.bprintf buf " %d=%h" i v);
    Buffer.add_char buf '\n'
  done;
  let floats name a =
    Buffer.add_string buf name;
    Array.iter (fun v -> Printf.bprintf buf " %h" v) a;
    Buffer.add_char buf '\n'
  in
  floats "b" sf.Sf.b;
  floats "cost" sf.Sf.cost;
  floats "lb" sf.Sf.lb;
  floats "ub" sf.Sf.ub;
  digest buf

let keymap_digest p =
  let km = Formulate.keymap p in
  let buf = Buffer.create 65536 in
  Array.iter
    (fun k ->
      (match (k : Basis_map.col_key) with
       | Flow_tx { file; link; slot } ->
           Printf.bprintf buf "tx %d %d %d" file link slot
       | Flow_store { file; node; slot } ->
           Printf.bprintf buf "st %d %d %d" file node slot
       | Charge { link } -> Printf.bprintf buf "x %d" link
       | Supply { file } -> Printf.bprintf buf "sup %d" file
       | Anon_col j -> Printf.bprintf buf "col %d" j);
      Buffer.add_char buf '\n')
    km.Basis_map.cols;
  Array.iter
    (fun k ->
      (match (k : Basis_map.row_key) with
       | Conservation { file; node; slot } ->
           Printf.bprintf buf "cons %d %d %d" file node slot
       | Capacity { link; slot } -> Printf.bprintf buf "cap %d %d" link slot
       | Charge_dom { link; slot } -> Printf.bprintf buf "dom %d %d" link slot
       | Anon_row i -> Printf.bprintf buf "row %d" i);
      Buffer.add_char buf '\n')
    km.Basis_map.rows;
  digest buf

(* The optimal plan's transmissions and holdovers, in the order the plan
   lists them, volumes bit for bit. *)
let plan_digest p =
  match Formulate.solve p with
  | Formulate.Infeasible -> "infeasible"
  | Formulate.Solver_failure msg -> "failure: " ^ msg
  | Formulate.Scheduled { plan; _ } ->
      let buf = Buffer.create 4096 in
      List.iter
        (fun (t : Postcard.Plan.transmission) ->
          Printf.bprintf buf "%d %d %d %h\n" t.file t.link t.slot t.volume)
        plan.Postcard.Plan.transmissions;
      List.iter
        (fun (h : Postcard.Plan.holdover) ->
          Printf.bprintf buf "%d %d %d %h\n" h.h_file h.h_node h.h_slot
            h.h_volume)
        plan.Postcard.Plan.holdovers;
      Printf.sprintf "%d/%d %s"
        (List.length plan.Postcard.Plan.transmissions)
        (List.length plan.Postcard.Plan.holdovers)
        (digest buf)

let check_pinned make ~shape ~standard_form ~keymap ~plan () =
  let p = make () in
  let m = Formulate.model p in
  Alcotest.(check string) "rows x cols" shape
    (Printf.sprintf "%dx%d" (Lp.Model.num_rows m) (Lp.Model.num_vars m));
  Alcotest.(check string) "standard form" standard_form (standard_form_digest p);
  Alcotest.(check string) "keymap" keymap (keymap_digest p);
  Alcotest.(check string) "plan order" plan (plan_digest p)

let first_slot () =
  program ~charged:(no_charge ()) ~capacity:ample (first_slot_files ())

let after_drops () =
  program ~charged:(no_charge ()) ~capacity:ample
    (drop_hardest 3 (first_slot_files ()))

let throttled_program () =
  let charged = Array.init (nodes * (nodes - 1)) (fun l -> float_of_int (l mod 4) *. 5.) in
  program ~charged ~capacity:throttled (first_slot_files ())

(* A file whose window holds 528 usable arcs, more than 512: the
   extraction order must also hold where a table of that many entries
   would have grown. *)
let long_windows () =
  let files =
    [ File.make ~id:100 ~src:0 ~dst:4 ~size:400. ~deadline:10 ~release:0 ]
  in
  program ~charged:(no_charge ()) ~capacity:ample files

(* Building a slot program runs for every solve, retries included, so its
   allocation is guarded like the kernels' in [Test_lu]: the 20-file
   first-slot program (formulation, keymap, standard form) must stay
   under its measured minor words plus 25%. It measured 23,075 words;
   the list-based model and hash-table formulation took 198,037. *)
let setup_minor_words_bound = 28_844.

let test_setup_allocation () =
  let base = network () and files = first_slot_files () in
  let charged = no_charge () in
  let build () =
    let p =
      Formulate.create ~base ~charged ~capacity:ample ~files ~epoch:0
        ~tie_break:1e-7 ()
    in
    ignore (Sys.opaque_identity (Formulate.keymap p));
    ignore (Sys.opaque_identity (Sf.of_model (Formulate.model p)))
  in
  build ();
  let before = Gc.minor_words () in
  build ();
  let words = Gc.minor_words () -. before in
  if words > setup_minor_words_bound then
    Alcotest.failf "building the program allocated %.0f minor words (bound %.0f)"
      words setup_minor_words_bound

let suite =
  [ Alcotest.test_case "first slot, 20 files" `Quick
      (check_pinned first_slot ~shape:"480x621"
         ~standard_form:"547209c006f5291db8e53fd51ee7bf0f"
         ~keymap:"867301a93a7573e76409ac91d3b69b2a"
         ~plan:"51/32 a675b003032b2d7575924591cf7ddc76");
    Alcotest.test_case "first slot after 3 drops" `Quick
      (check_pinned after_drops ~shape:"474x618"
         ~standard_form:"a271ef4f29579e1eaf0194dbf51eb806"
         ~keymap:"c5dc8478bbe98f51aeba59030468813e"
         ~plan:"43/33 e7601940ec310032565ea71b433ea07a");
    Alcotest.test_case "throttled capacity" `Quick
      (check_pinned throttled_program ~shape:"397x508"
         ~standard_form:"a9b4fb5562128f46bfc2a14dd696e81b"
         ~keymap:"86366a8c0291e454f4ca98ec7e1e6e58"
         ~plan:"87/42 ca67f32ae295d25b9b4e168af1e028ec");
    Alcotest.test_case "long window" `Quick
      (check_pinned long_windows ~shape:"998x584"
         ~standard_form:"851d29be25834d52ba8080cc9db29b74"
         ~keymap:"b3a8e84b705f7258fd601e5fb5f5ea54"
         ~plan:"18/16 6e2232c8a9bcb881dadb5ce87c6b49b4");
    Alcotest.test_case "set-up allocation stays bounded" `Quick
      test_setup_allocation ]
