module Graph = Netgraph.Graph
module Texp = Timexp.Time_expanded
module Model = Lp.Model

type t = {
  base : Graph.t;
  files : File.t array;
  epoch : int;
  horizon : int;
  texp : Texp.t;
  (* File [fi]'s variables are the consecutive columns [first_var.(fi) + k],
     one per expanded arc [file_arcs.(fi).(k)] it may use, arcs
     ascending. *)
  first_var : int array;
  file_arcs : int array array;
  (* The transmission variables of every (layer, link), ascending: those of
     slot [s = layer * num_links + link] are
     [tx_vars.(tx_start.(s) .. tx_start.(s + 1) - 1)]. They make the
     capacity and dominance rows. *)
  tx_start : int array;
  tx_vars : int array;
  (* Stable structural keys of every column/row this formulation created,
     for translating simplex bases across epochs. *)
  registry : Basis_map.Registry.t;
}

let texp t = t.texp
let horizon t = t.horizon

(* Breadth-first hop distances from [src], following arcs forward or, with
   [~backward:true], backward (distances {e to} [src]). *)
let hop_distances ?(backward = false) g ~src =
  let n = Graph.num_nodes g in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let visit id =
      let a = Graph.arc g id in
      let v = if backward then a.Graph.src else a.Graph.dst in
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        Queue.push v queue
      end
    in
    if backward then Graph.iter_in_arcs g u visit
    else Graph.iter_out_arcs g u visit
  done;
  dist

let deliverable ~base f =
  let dist = hop_distances base ~src:f.File.src in
  dist.(f.File.dst) <= f.File.deadline

(* Hop distances by endpoint, each computed the first time a file asks. *)
let distance_cache g ~backward =
  let cache = Array.make (Graph.num_nodes g) [||] in
  fun node ->
    if Array.length cache.(node) = 0 then
      cache.(node) <- hop_distances ~backward g ~src:node;
    cache.(node)

let build ~model ~base ~capacity ~files ~epoch ~flow_obj ~supply =
  List.iter
    (fun f ->
      if f.File.release < epoch then
        invalid_arg "Texp_lp.build: file released before epoch";
      if f.File.src >= Graph.num_nodes base || f.File.dst >= Graph.num_nodes base
      then invalid_arg "Texp_lp.build: file endpoint outside graph")
    files;
  (match supply with
   | `Full -> ()
   | `Elastic v ->
       if Array.length v <> List.length files then
         invalid_arg "Texp_lp.build: elastic supply size mismatch");
  let files = Array.of_list files in
  let n_files = Array.length files in
  (* Each file's transmission window in epoch-relative layers. *)
  let window_lo f = f.File.release - epoch in
  let window_hi f = window_lo f + f.File.deadline in
  let horizon =
    Array.fold_left (fun acc f -> max acc (window_hi f)) 1 files
  in
  let texp = Texp.build ~base ~horizon ~capacity in
  let graph = Texp.graph texp in
  let n_base = Graph.num_nodes base and n_links = Graph.num_arcs base in
  let from_node = distance_cache base ~backward:false in
  let to_node = distance_cache base ~backward:true in
  let from_src = Array.map (fun f -> from_node f.File.src) files in
  let to_dst = Array.map (fun f -> to_node f.File.dst) files in
  let node_usable fi node layer =
    let f = files.(fi) in
    let lo = window_lo f and hi = window_hi f in
    layer >= lo && layer <= hi
    && from_src.(fi).(node) <= layer - lo
    && to_dst.(fi).(node) <= hi - layer
  in
  let link_src = Array.init n_links (fun l -> (Graph.arc base l).Graph.src) in
  let link_dst = Array.init n_links (fun l -> (Graph.arc base l).Graph.dst) in
  (* Each file's usable arcs in ascending id order: within a layer the
     expansion numbers the transmission arcs by link, then the storage
     arcs by node. Arcs with no usable capacity would only add degenerate
     zero-forced columns. *)
  let arcs_buf = Array.make (Graph.num_arcs graph) 0 in
  let file_arcs =
    Array.mapi
      (fun fi f ->
        let lo = window_lo f and hi = window_hi f in
        let from_src = from_src.(fi) and to_dst = to_dst.(fi) in
        (* [node_usable] for a layer already known to be in the window. *)
        let reachable node layer =
          from_src.(node) <= layer - lo && to_dst.(node) <= hi - layer
        in
        let len = ref 0 in
        let consider arc =
          if (Graph.arc graph arc).Graph.capacity > 1e-9 then begin
            arcs_buf.(!len) <- arc;
            incr len
          end
        in
        for layer = lo to hi - 1 do
          for link = 0 to n_links - 1 do
            if reachable link_src.(link) layer
               && reachable link_dst.(link) (layer + 1)
            then consider (Texp.transmission_arc texp ~link ~layer)
          done;
          for node = 0 to n_base - 1 do
            if reachable node layer && reachable node (layer + 1) then
              consider (Texp.storage_arc texp ~node ~layer)
          done
        done;
        Array.sub arcs_buf 0 !len)
      files
  in
  (* Group the transmission variables by (layer, link) in one counting
     pass; visiting files and their arcs in order keeps each group
     ascending. *)
  let n_slots = horizon * n_links in
  let slot_of_arc arc =
    match Texp.kind texp arc with
    | Texp.Transmission { link; layer } -> (layer * n_links) + link
    | Texp.Storage _ -> -1
  in
  let tx_start = Array.make (n_slots + 1) 0 in
  Array.iter
    (Array.iter (fun arc ->
         let s = slot_of_arc arc in
         if s >= 0 then tx_start.(s + 1) <- tx_start.(s + 1) + 1))
    file_arcs;
  let used_slots = ref 0 in
  for s = 1 to n_slots do
    if tx_start.(s) > 0 then incr used_slots;
    tx_start.(s) <- tx_start.(s) + tx_start.(s - 1)
  done;
  let n_tx = tx_start.(n_slots) in
  (* Room for everything below and for the charge columns and dominance
     rows {!add_charge_coupling} may add: the conservation rows at most
     one per usable node copy, each variable in at most two of them. *)
  let node_copies = ref 0 in
  Array.iteri
    (fun fi f ->
      for layer = window_lo f to window_hi f do
        for node = 0 to n_base - 1 do
          if node_usable fi node layer then incr node_copies
        done
      done)
    files;
  let n_flow = Array.fold_left (fun acc a -> acc + Array.length a) 0 file_arcs in
  Model.reserve model ~vars:(n_flow + n_links)
    ~rows:(!node_copies + (2 * !used_slots))
    ~terms:((2 * n_flow) + (2 * n_files) + (2 * n_tx) + !used_slots);
  let registry =
    Basis_map.Registry.create
      ~cols:(Model.num_vars model + n_flow + n_links)
      ~rows:(Model.num_rows model + !node_copies + (2 * !used_slots))
  in
  let first_var = Array.make n_files 0 in
  Array.iteri
    (fun fi f ->
      first_var.(fi) <- Model.num_vars model;
      Array.iter
        (fun arc ->
          match Texp.kind texp arc with
          | Texp.Transmission { link; layer } ->
              let obj = flow_obj ~cost:(Graph.arc graph arc).Graph.cost in
              let v = Model.add_var model ~lb:0. ~ub:f.File.size ~obj () in
              Basis_map.Registry.set_col registry v
                (Basis_map.Flow_tx
                   { file = f.File.id; link; slot = epoch + layer })
          | Texp.Storage { node; layer } ->
              let v = Model.add_var model ~lb:0. ~ub:f.File.size ~obj:0. () in
              Basis_map.Registry.set_col registry v
                (Basis_map.Flow_store
                   { file = f.File.id; node; slot = epoch + layer }))
        file_arcs.(fi))
    files;
  (* Per-file conservation at every usable node copy. With elastic supply,
     the injected amount is the supply variable rather than F_k. The terms
     are staged in-arcs first, then out-arcs, each in insertion order:
     ascending arc ids, so ascending variables. *)
  let var_of_arc = Array.make (Graph.num_arcs graph) (-1) in
  Array.iteri
    (fun fi f ->
      let arcs = file_arcs.(fi) in
      Array.iteri (fun k arc -> var_of_arc.(arc) <- first_var.(fi) + k) arcs;
      let lo = window_lo f and hi = window_hi f in
      let staged = ref 0 in
      let stage c arc =
        let v = var_of_arc.(arc) in
        if v >= 0 then begin
          Model.stage_term model (Model.var_of_index model v) c;
          incr staged
        end
      in
      let stage_in = stage (-1.) and stage_out = stage 1. in
      for layer = lo to hi do
        for node = 0 to n_base - 1 do
          if node_usable fi node layer then begin
            let expanded = Texp.node_at texp ~node ~layer in
            let is_source = node = f.File.src && layer = lo in
            let is_sink = node = f.File.dst && layer = hi in
            staged := 0;
            (match supply with
             | `Elastic v when is_source ->
                 Model.stage_term model v.(fi) (-1.);
                 incr staged
             | `Elastic v when is_sink ->
                 Model.stage_term model v.(fi) 1.;
                 incr staged
             | `Elastic _ | `Full -> ());
            if layer > lo then Graph.iter_in_arcs graph expanded stage_in;
            if layer < hi then Graph.iter_out_arcs graph expanded stage_out;
            let rhs =
              match supply with
              | `Full ->
                  if is_source then f.File.size
                  else if is_sink then -.f.File.size
                  else 0.
              | `Elastic _ -> 0.
            in
            if !staged > 0 || rhs <> 0. then begin
              let row = Model.add_constraint model [] Model.Eq rhs in
              Basis_map.Registry.set_row registry row
                (Basis_map.Conservation
                   { file = f.File.id; node; slot = epoch + layer })
            end
          end
        done
      done;
      Array.iter (fun arc -> var_of_arc.(arc) <- -1) arcs)
    files;
  let tx_vars = Array.make n_tx 0 in
  let next = Array.sub tx_start 0 n_slots in
  Array.iteri
    (fun fi arcs ->
      Array.iteri
        (fun k arc ->
          let s = slot_of_arc arc in
          if s >= 0 then begin
            tx_vars.(next.(s)) <- first_var.(fi) + k;
            next.(s) <- next.(s) + 1
          end)
        arcs)
    file_arcs;
  (* Aggregate capacity rows per (layer, link) carrying variables. *)
  for layer = 0 to horizon - 1 do
    for link = 0 to n_links - 1 do
      let s = (layer * n_links) + link in
      if tx_start.(s) < tx_start.(s + 1) then begin
        let cap = capacity ~link ~layer in
        if cap < infinity then begin
          for k = tx_start.(s) to tx_start.(s + 1) - 1 do
            Model.stage_term model (Model.var_of_index model tx_vars.(k)) 1.
          done;
          let row = Model.add_constraint model [] Model.Le cap in
          Basis_map.Registry.set_row registry row
            (Basis_map.Capacity { link; slot = epoch + layer })
        end
      end
    done
  done;
  (match supply with
   | `Full -> ()
   | `Elastic v ->
       Array.iteri
         (fun fi sv ->
           Basis_map.Registry.set_col registry sv
             (Basis_map.Supply { file = files.(fi).File.id }))
         v);
  { base; files; epoch; horizon; texp; first_var; file_arcs; tx_start; tx_vars;
    registry }

let add_charge_coupling ~model t ~charged ~x_obj =
  if Array.length charged <> Graph.num_arcs t.base then
    invalid_arg "Texp_lp.add_charge_coupling: charged size mismatch";
  let n_links = Graph.num_arcs t.base in
  let x_vars =
    Array.init n_links (fun l ->
        let a = Graph.arc t.base l in
        let v =
          Model.add_var model ~lb:charged.(l)
            ~obj:(x_obj ~cost:a.Graph.cost)
            ()
        in
        Basis_map.Registry.set_col t.registry v (Basis_map.Charge { link = l });
        v)
  in
  for layer = 0 to t.horizon - 1 do
    for link = 0 to n_links - 1 do
      let s = (layer * n_links) + link in
      if t.tx_start.(s) < t.tx_start.(s + 1) then begin
        for k = t.tx_start.(s) to t.tx_start.(s + 1) - 1 do
          Model.stage_term model (Model.var_of_index model t.tx_vars.(k)) 1.
        done;
        let row =
          Model.add_constraint model [ (x_vars.(link), -1.) ] Model.Le 0.
        in
        Basis_map.Registry.set_row t.registry row
          (Basis_map.Charge_dom { link; slot = t.epoch + layer })
      end
    done
  done;
  x_vars

let eps_volume = 1e-7

(* The ledger adds a plan's volumes up in the order the plan lists them, so
   that order is part of the bill's arithmetic and is kept fixed: each
   file's arcs are visited as a [Hashtbl.create 256] filled with them in
   ascending order iterates — by bucket ([Hashtbl.hash arc] over the final
   bucket count, which doubles while the table holds more than twice as
   many entries), the newest arc first within a bucket. Returns the
   positions in [arcs] in that order. *)
let table_order arcs =
  let n = Array.length arcs in
  let buckets = ref 256 in
  while n > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let nb = !buckets in
  let bucket = Array.map (fun arc -> Hashtbl.hash arc land (nb - 1)) arcs in
  let next = Array.make (nb + 1) 0 in
  Array.iter (fun b -> next.(b + 1) <- next.(b + 1) + 1) bucket;
  for b = 1 to nb do
    next.(b) <- next.(b) + next.(b - 1)
  done;
  let order = Array.make n 0 in
  for k = n - 1 downto 0 do
    let b = bucket.(k) in
    order.(next.(b)) <- k;
    next.(b) <- next.(b) + 1
  done;
  order

let extract_plan t ~primal =
  let transmissions = ref [] and holdovers = ref [] in
  Array.iteri
    (fun fi f ->
      let arcs = t.file_arcs.(fi) in
      Array.iter
        (fun k ->
          let value = primal.(t.first_var.(fi) + k) in
          if value > eps_volume then
            match Texp.kind t.texp arcs.(k) with
            | Texp.Transmission { link; layer } ->
                transmissions :=
                  { Plan.file = f.File.id;
                    link;
                    slot = t.epoch + layer;
                    volume = value }
                  :: !transmissions
            | Texp.Storage { node; layer } ->
                holdovers :=
                  { Plan.h_file = f.File.id;
                    h_node = node;
                    h_slot = t.epoch + layer;
                    h_volume = value }
                  :: !holdovers)
        (table_order arcs))
    t.files;
  { Plan.transmissions = !transmissions; holdovers = !holdovers }

let keymap t ~model = Basis_map.Registry.keymap t.registry ~model

let extract_supplies t ~primal vars =
  ignore t;
  Array.map (fun (v : Model.var) -> primal.((v :> int))) vars
