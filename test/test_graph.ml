module Graph = Netgraph.Graph

let test_build () =
  let g = Graph.create ~n:3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~capacity:5. ~cost:2. () in
  let b = Graph.add_arc g ~src:1 ~dst:2 () in
  Alcotest.(check int) "nodes" 3 (Graph.num_nodes g);
  Alcotest.(check int) "arcs" 2 (Graph.num_arcs g);
  let arc = Graph.arc g a in
  Alcotest.(check int) "src" 0 arc.Graph.src;
  Alcotest.(check int) "dst" 1 arc.Graph.dst;
  Alcotest.(check (float 0.)) "capacity" 5. arc.Graph.capacity;
  Alcotest.(check (float 0.)) "cost" 2. arc.Graph.cost;
  let arc2 = Graph.arc g b in
  Alcotest.(check bool) "default capacity" true (arc2.Graph.capacity = infinity);
  Alcotest.(check (float 0.)) "default cost" 0. arc2.Graph.cost

let test_adjacency () =
  let g = Graph.create ~n:4 in
  let a01 = Graph.add_arc g ~src:0 ~dst:1 () in
  let a02 = Graph.add_arc g ~src:0 ~dst:2 () in
  let a31 = Graph.add_arc g ~src:3 ~dst:1 () in
  Alcotest.(check (list int)) "out 0" [ a01; a02 ] (Graph.out_arcs g 0);
  Alcotest.(check (list int)) "in 1" [ a01; a31 ] (Graph.in_arcs g 1);
  Alcotest.(check (list int)) "out 2 empty" [] (Graph.out_arcs g 2);
  (* The iterators visit the same arcs in the same (insertion) order. *)
  let visited iter v =
    let seen = ref [] in
    iter g v (fun id -> seen := id :: !seen);
    List.rev !seen
  in
  Alcotest.(check (list int)) "iter out 0" [ a01; a02 ] (visited Graph.iter_out_arcs 0);
  Alcotest.(check (list int)) "iter in 1" [ a01; a31 ] (visited Graph.iter_in_arcs 1);
  Alcotest.(check (list int)) "iter in 0 empty" [] (visited Graph.iter_in_arcs 0)

let test_find_arc () =
  let g = Graph.create ~n:3 in
  let a = Graph.add_arc g ~src:0 ~dst:2 () in
  Alcotest.(check (option int)) "found" (Some a) (Graph.find_arc g ~src:0 ~dst:2);
  Alcotest.(check (option int)) "absent" None (Graph.find_arc g ~src:2 ~dst:0)

let test_add_node () =
  let g = Graph.create ~n:1 in
  let v = Graph.add_node g in
  Alcotest.(check int) "new index" 1 v;
  ignore (Graph.add_arc g ~src:0 ~dst:1 ());
  Alcotest.(check int) "usable" 1 (Graph.num_arcs g)

let test_invalid () =
  let g = Graph.create ~n:2 in
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.add_arc: self-loop")
    (fun () -> ignore (Graph.add_arc g ~src:0 ~dst:0 ()));
  Alcotest.check_raises "bad dst" (Invalid_argument "Graph.add_arc: dst out of range")
    (fun () -> ignore (Graph.add_arc g ~src:0 ~dst:5 ()));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Graph.add_arc: negative capacity") (fun () ->
      ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:(-1.) ()))

let test_map_capacities () =
  let g = Graph.create ~n:2 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:3. ());
  let g' = Graph.map_capacities g (fun a -> a.Graph.capacity *. 2.) in
  Alcotest.(check (float 0.)) "doubled" 6. (Graph.arc g' 0).Graph.capacity

let test_topology_complete () =
  let rng = Prelude.Rng.of_int 5 in
  let g = Netgraph.Topology.complete ~n:6 ~rng ~cost_lo:1. ~cost_hi:10. ~capacity:30. in
  Alcotest.(check int) "arc count" 30 (Graph.num_arcs g);
  Graph.iter_arcs g (fun a ->
      Alcotest.(check bool) "cost in range" true
        (a.Graph.cost >= 1. && a.Graph.cost < 10.);
      Alcotest.(check (float 0.)) "capacity" 30. a.Graph.capacity)

let test_topology_symmetric () =
  let rng = Prelude.Rng.of_int 5 in
  let g =
    Netgraph.Topology.complete_symmetric ~n:5 ~rng ~cost_lo:1. ~cost_hi:10.
      ~capacity:1.
  in
  Graph.iter_arcs g (fun a ->
      match Graph.find_arc g ~src:a.Graph.dst ~dst:a.Graph.src with
      | None -> Alcotest.fail "missing reverse arc"
      | Some id ->
          Alcotest.(check (float 0.)) "symmetric cost" a.Graph.cost
            (Graph.arc g id).Graph.cost)

let test_topology_ring_star () =
  let ring = Netgraph.Topology.ring ~n:5 ~cost:2. ~capacity:1. in
  Alcotest.(check int) "ring arcs" 10 (Graph.num_arcs ring);
  let star = Netgraph.Topology.star ~n:5 ~hub:0 ~cost:1. ~capacity:1. in
  Alcotest.(check int) "star arcs" 8 (Graph.num_arcs star)

let test_of_cost_matrix () =
  let g =
    Netgraph.Topology.of_cost_matrix ~capacity:5.
      [| [| 0.; 1.; infinity |]; [| 2.; 0.; 3. |]; [| infinity; 4.; 0. |] |]
  in
  Alcotest.(check int) "arcs" 4 (Graph.num_arcs g);
  match Graph.find_arc g ~src:1 ~dst:2 with
  | None -> Alcotest.fail "missing arc"
  | Some id -> Alcotest.(check (float 0.)) "cost" 3. (Graph.arc g id).Graph.cost

let suite =
  [ Alcotest.test_case "build" `Quick test_build;
    Alcotest.test_case "adjacency" `Quick test_adjacency;
    Alcotest.test_case "find arc" `Quick test_find_arc;
    Alcotest.test_case "add node" `Quick test_add_node;
    Alcotest.test_case "invalid" `Quick test_invalid;
    Alcotest.test_case "map capacities" `Quick test_map_capacities;
    Alcotest.test_case "topology complete" `Quick test_topology_complete;
    Alcotest.test_case "topology symmetric" `Quick test_topology_symmetric;
    Alcotest.test_case "topology ring/star" `Quick test_topology_ring_star;
    Alcotest.test_case "of cost matrix" `Quick test_of_cost_matrix ]
