type t = {
  n : int;
  (* L, column-compressed: column k (one per elimination step) is
     l_row/l_val over [l_start.(k), l_start.(k + 1)), entries
     (original_row, multiplier) with the unit diagonal implicit. *)
  l_start : int array;
  l_row : int array;
  l_val : float array;
  (* U, column-compressed the same way: entries (pivot_step, value) for
     rows already pivoted, strictly above the diagonal. *)
  u_start : int array;
  u_step : int array;
  u_val : float array;
  u_diag : float array;
  (* pivot_row.(k) = original row chosen as pivot at step k;
     pinv.(r) = step at which original row r was pivoted. *)
  pivot_row : int array;
  pinv : int array;
  (* q.(k) = original column eliminated at step k. *)
  q : int array;
  (* Nonzeros of the input matrix, for fill-in accounting. *)
  input_nnz : int;
  (* Scratch of the triangular solves, so that they allocate nothing. *)
  work : float array;
}

type error = Singular of int

let dim f = f.n

let nnz f = f.l_start.(f.n) + f.u_start.(f.n) + f.n

let input_nnz f = f.input_nnz

let fill_in f = max 0 (nnz f - f.input_nnz)

let min_abs_diag f =
  Array.fold_left (fun acc d -> min acc (abs_float d)) infinity f.u_diag

(* A factor under construction: columns are appended in elimination order
   into growable index/value buffers, column k ending at [start.(k + 1)]. *)
type factor_buf = {
  start : int array;
  mutable idx : int array;
  mutable vals : float array;
  mutable len : int;
}

let buf_create ~cols ~cap =
  { start = Array.make (cols + 1) 0;
    idx = Array.make cap 0;
    vals = Array.make cap 0.;
    len = 0 }

let buf_push b i v =
  if b.len = Array.length b.idx then begin
    let cap = (2 * b.len) + 16 in
    let idx = Array.make cap 0 and vals = Array.make cap 0. in
    Array.blit b.idx 0 idx 0 b.len;
    Array.blit b.vals 0 vals 0 b.len;
    b.idx <- idx;
    b.vals <- vals
  end;
  b.idx.(b.len) <- i;
  b.vals.(b.len) <- v;
  b.len <- b.len + 1

let buf_close b k = b.start.(k + 1) <- b.len

(* Scratch shared by the factorization and {!crash_select}: the L columns
   computed so far, [pinv], the dense accumulator [x], and the pattern
   search's marks and stacks. *)
type elim = {
  l : factor_buf;
  pinv : int array;
  x : float array;
  visited : bool array;
  stack : int array;  (* the column's pattern, reverse topological order *)
  dfs_node : int array;  (* the search path *)
  dfs_child : int array;  (* next child to visit at each level of the path *)
}

let elim_create ~n ~l_cols ~cap =
  { l = buf_create ~cols:l_cols ~cap;
    pinv = Array.make n (-1);
    x = Array.make n 0.;
    visited = Array.make n false;
    stack = Array.make n 0;
    dfs_node = Array.make n 0;
    dfs_child = Array.make n 0 }

(* Depth-first search computing the topological order of the rows reachable
   from [start] through already-computed L columns, visiting each node's
   children in column order. Rows are appended to [e.stack] from [top] in
   reverse topological order; returns the new top. The explicit stack
   avoids overflowing the OCaml call stack on long elimination chains, and
   a row is pushed at most once (it is marked on its first visit, which
   comes right after the push), so depth [n] suffices. *)
let reach e ~top start =
  let top = ref top and depth = ref 1 in
  e.dfs_node.(0) <- start;
  e.dfs_child.(0) <- 0;
  while !depth > 0 do
    let d = !depth - 1 in
    let node = e.dfs_node.(d) and child = e.dfs_child.(d) in
    if child = 0 then e.visited.(node) <- true;
    let step = e.pinv.(node) in
    let first = if step >= 0 then e.l.start.(step) else 0 in
    let last = if step >= 0 then e.l.start.(step + 1) else 0 in
    if first + child < last then begin
      e.dfs_child.(d) <- child + 1;
      let next = e.l.idx.(first + child) in
      if not e.visited.(next) then begin
        e.dfs_node.(!depth) <- next;
        e.dfs_child.(!depth) <- 0;
        incr depth
      end
    end
    else begin
      decr depth;
      e.stack.(!top) <- node;
      incr top
    end
  done;
  !top

let default_col_order ~dim iter_col =
  let order = Array.init dim (fun j -> j) in
  let counts = Array.make dim 0 in
  for j = 0 to dim - 1 do
    let c = ref 0 in
    iter_col j (fun _ _ -> incr c);
    counts.(j) <- !c
  done;
  Array.sort
    (fun a b ->
      let c = compare counts.(a) counts.(b) in
      if c <> 0 then c else compare a b)
    order;
  order

(* Shared per-column front end of the elimination: scatter column [j] into
   the dense accumulator [e.x] while collecting (in [e.stack], via [reach])
   the topological order of its fill pattern, then run the sparse
   triangular solve against the L columns computed so far. Returns the
   pattern size. *)
let eliminate_column e ~iter_col j =
  let top = ref 0 in
  iter_col j (fun r v ->
      if not e.visited.(r) then top := reach e ~top:!top r;
      e.x.(r) <- e.x.(r) +. v);
  let l = e.l and x = e.x in
  for s = !top - 1 downto 0 do
    let node = e.stack.(s) in
    let step = e.pinv.(node) in
    if step >= 0 then begin
      let xj = x.(node) in
      if xj <> 0. then
        for p = l.start.(step) to l.start.(step + 1) - 1 do
          let r = l.idx.(p) in
          x.(r) <- x.(r) -. (l.vals.(p) *. xj)
        done
    end
  done;
  !top

(* Partial pivoting among not-yet-pivoted rows of the pattern. Returns the
   chosen row, or -1 when no entry exceeds [threshold]. *)
let select_pivot e ~top ~threshold =
  let pinv = e.pinv and stack = e.stack and x = e.x in
  let best = ref (-1) and best_abs = ref threshold in
  for s = 0 to top - 1 do
    let r = stack.(s) in
    if pinv.(r) < 0 then begin
      let a = abs_float x.(r) in
      if a > !best_abs then begin
        best_abs := a;
        best := r
      end
    end
  done;
  !best

(* Markowitz-style threshold pivoting: among the not-yet-pivoted rows of
   the pattern whose magnitude is within a factor [rel] of the largest
   (and above [threshold]), prefer the row with the fewest nonzeros in the
   input matrix — the classic fill-in proxy, here with static row counts
   so selection stays O(pattern). Magnitude then row index break ties, so
   the choice is deterministic. Returns -1 when no entry exceeds
   [threshold], exactly like {!select_pivot}. *)
let markowitz_rel = 0.1

let select_pivot_markowitz e ~top ~threshold ~row_counts =
  let pinv = e.pinv and stack = e.stack and x = e.x in
  let max_abs = ref 0. in
  for s = 0 to top - 1 do
    let r = stack.(s) in
    if pinv.(r) < 0 then begin
      let a = abs_float x.(r) in
      if a > !max_abs then max_abs := a
    end
  done;
  if !max_abs <= threshold then -1
  else begin
    let accept = max threshold (markowitz_rel *. !max_abs) in
    let best = ref (-1) and best_count = ref max_int and best_abs = ref 0. in
    for s = 0 to top - 1 do
      let r = stack.(s) in
      if pinv.(r) < 0 then begin
        let a = abs_float x.(r) in
        if a >= accept then begin
          let c = row_counts.(r) in
          let better =
            c < !best_count
            || (c = !best_count
                && (a > !best_abs || (a = !best_abs && r < !best)))
          in
          if better then begin
            best := r;
            best_count := c;
            best_abs := a
          end
        end
      end
    done;
    !best
  end

let clear_pattern e ~top =
  for s = 0 to top - 1 do
    let r = e.stack.(s) in
    e.x.(r) <- 0.;
    e.visited.(r) <- false
  done

(* Per-factorization telemetry: dimension, stored nonzeros and fill-in of
   the factors, plus a running factorization count. Updates are O(1)
   no-ops while the metrics registry is disabled. *)
let m_factorizations = Obs.Metrics.counter "lu.factorizations"
let g_dim = Obs.Metrics.gauge "lu.last_dim"
let g_nnz = Obs.Metrics.gauge "lu.last_nnz"
let g_fill = Obs.Metrics.gauge "lu.last_fill_in"
let h_fill_ratio = Obs.Metrics.histogram "lu.fill_ratio"

let record_factorization f =
  Obs.Metrics.incr m_factorizations;
  if Obs.Metrics.enabled () then begin
    let stored = nnz f in
    Obs.Metrics.set g_dim (float_of_int f.n);
    Obs.Metrics.set g_nnz (float_of_int stored);
    Obs.Metrics.set g_fill (float_of_int (fill_in f));
    if f.input_nnz > 0 then
      Obs.Metrics.observe h_fill_ratio
        (float_of_int stored /. float_of_int f.input_nnz)
  end

(* The solves rely on [q] being a permutation: they write every entry of
   their output through it. *)
let check_col_order n order =
  if Array.length order <> n then
    invalid_arg "Lu.factorize: col_order length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun j ->
      if j < 0 || j >= n || seen.(j) then
        invalid_arg "Lu.factorize: col_order is not a permutation";
      seen.(j) <- true)
    order

(* The factors are gathered walking each column's pattern backwards, from
   the top of [e.stack] down. The transposed solve accumulates its dot
   products in stored order, so this order is part of the arithmetic. *)
let factorize_iter ?col_order ~dim:n iter_col =
  Option.iter (check_col_order n) col_order;
  let sp = Obs.Span.begin_ "lu.factorize" in
  let q = match col_order with
    | Some order -> order
    | None -> default_col_order ~dim:n iter_col
  in
  (* Static row nonzero counts of the input matrix, the Markowitz fill-in
     proxy used by the pivot selection below. One O(nnz) pass, which also
     sizes the factor buffers. *)
  let row_counts = Array.make n 0 in
  let input_nnz = ref 0 in
  for j = 0 to n - 1 do
    iter_col j (fun r _ ->
        incr input_nnz;
        row_counts.(r) <- row_counts.(r) + 1)
  done;
  let cap = max 16 !input_nnz in
  let e = elim_create ~n ~l_cols:n ~cap in
  let u = buf_create ~cols:n ~cap in
  let u_diag = Array.make n 0. in
  let pivot_row = Array.make n (-1) in
  let exception Singular_at of int in
  try
    for k = 0 to n - 1 do
      let top = eliminate_column e ~iter_col q.(k) in
      let piv =
        select_pivot_markowitz e ~top ~threshold:1e-13 ~row_counts
      in
      if piv < 0 then raise (Singular_at k);
      let d = e.x.(piv) in
      (* Gather U (pivoted rows) and L (remaining rows, scaled). *)
      for s = top - 1 downto 0 do
        let r = e.stack.(s) in
        let v = e.x.(r) in
        if v <> 0. then begin
          if e.pinv.(r) >= 0 then buf_push u e.pinv.(r) v
          else if r <> piv then buf_push e.l r (v /. d)
        end
      done;
      buf_close u k;
      buf_close e.l k;
      clear_pattern e ~top;
      u_diag.(k) <- d;
      pivot_row.(k) <- piv;
      e.pinv.(piv) <- k
    done;
    let l = e.l in
    let f =
      { n;
        l_start = l.start;
        l_row = Array.sub l.idx 0 l.len;
        l_val = Array.sub l.vals 0 l.len;
        u_start = u.start;
        u_step = Array.sub u.idx 0 u.len;
        u_val = Array.sub u.vals 0 u.len;
        u_diag; pivot_row; pinv = e.pinv; q;
        input_nnz = !input_nnz;
        work = Array.make n 0. }
    in
    record_factorization f;
    Obs.Span.end_ sp;
    Ok f
  with Singular_at k ->
    Obs.Span.end_ sp;
    Error (Singular k)

let factorize ?col_order ~dim col =
  factorize_iter ?col_order ~dim (fun j f ->
      Array.iter (fun (r, v) -> f r v) (col j))

let diagonal d =
  let n = Array.length d in
  { n;
    l_start = Array.make (n + 1) 0;
    l_row = [||];
    l_val = [||];
    u_start = Array.make (n + 1) 0;
    u_step = [||];
    u_val = [||];
    u_diag = Array.copy d;
    pivot_row = Array.init n Fun.id;
    pinv = Array.init n Fun.id;
    q = Array.init n Fun.id;
    input_nnz = n;
    work = Array.make n 0. }

(* Rank-revealing greedy pass used to repair a carried simplex basis: run
   the same left-looking elimination over [ncols] candidate columns, but
   instead of failing on a column with no acceptable pivot, skip it. The
   threshold is far above the factorization's own (1e-13): a candidate that
   only barely avoids singularity would produce a terrible starting basis.
   Returns the accepted candidate indices (in elimination order) and the
   rows left unpivoted, which the caller must cover with slack/artificial
   columns. *)
let crash_select ~dim:n ~ncols iter_col =
  let e = elim_create ~n ~l_cols:(min n ncols) ~cap:(max 16 n) in
  let accepted = ref [] and n_accepted = ref 0 in
  let j = ref 0 in
  while !j < ncols && !n_accepted < n do
    let top = eliminate_column e ~iter_col !j in
    let piv = select_pivot e ~top ~threshold:1e-9 in
    if piv >= 0 then begin
      let d = e.x.(piv) in
      for s = top - 1 downto 0 do
        let r = e.stack.(s) in
        let v = e.x.(r) in
        if v <> 0. && e.pinv.(r) < 0 && r <> piv then buf_push e.l r (v /. d)
      done;
      buf_close e.l !n_accepted;
      e.pinv.(piv) <- !n_accepted;
      accepted := !j :: !accepted;
      incr n_accepted
    end;
    clear_pattern e ~top;
    incr j
  done;
  let unpivoted = ref [] in
  for r = n - 1 downto 0 do
    if e.pinv.(r) < 0 then unpivoted := r :: !unpivoted
  done;
  (Array.of_list (List.rev !accepted), Array.of_list !unpivoted)

(* FTRAN: solve B x = b with P B Q = L U, i.e. x = Q (U \ (L \ P b)).
   [b] is indexed by original rows on entry, by original columns on exit. *)
let solve f b =
  if Array.length b <> f.n then invalid_arg "Lu.solve: size mismatch";
  let n = f.n in
  let pivot_row = f.pivot_row in
  (* Forward solve L y = P b, working directly in original row space: the
     value at pivot_row.(k) is y_k. *)
  let l_start = f.l_start and l_row = f.l_row and l_val = f.l_val in
  for k = 0 to n - 1 do
    let yk = b.(pivot_row.(k)) in
    if yk <> 0. then
      for p = l_start.(k) to l_start.(k + 1) - 1 do
        let r = l_row.(p) in
        b.(r) <- b.(r) -. (l_val.(p) *. yk)
      done
  done;
  (* Move into pivot-step space. *)
  let y = f.work in
  for k = 0 to n - 1 do
    y.(k) <- b.(pivot_row.(k))
  done;
  (* Backward solve U w = y by columns. *)
  let u_start = f.u_start and u_step = f.u_step and u_val = f.u_val in
  for k = n - 1 downto 0 do
    let wk = y.(k) /. f.u_diag.(k) in
    y.(k) <- wk;
    if wk <> 0. then
      for p = u_start.(k) to u_start.(k + 1) - 1 do
        let i = u_step.(p) in
        y.(i) <- y.(i) -. (u_val.(p) *. wk)
      done
  done;
  (* Apply the column permutation, x.(q.(k)) = w_k; [q] is a permutation,
     so every entry of [b] is overwritten. *)
  for k = 0 to n - 1 do
    b.(f.q.(k)) <- y.(k)
  done

(* BTRAN: solve B^T y = c. With B = P^T L U Q^T this is
   y = P^T (L^T \ (U^T \ Q^T c)). [c] is indexed by original columns on
   entry, by original rows on exit. *)
let solve_transpose f c =
  if Array.length c <> f.n then invalid_arg "Lu.solve_transpose: size mismatch";
  let n = f.n in
  let u = f.work in
  for k = 0 to n - 1 do
    u.(k) <- c.(f.q.(k))
  done;
  (* Forward solve U^T v = u: U^T is lower triangular; row k of U^T is
     column k of U. *)
  let u_start = f.u_start and u_step = f.u_step and u_val = f.u_val in
  for k = 0 to n - 1 do
    let acc = ref u.(k) in
    for p = u_start.(k) to u_start.(k + 1) - 1 do
      acc := !acc -. (u_val.(p) *. u.(u_step.(p)))
    done;
    u.(k) <- !acc /. f.u_diag.(k)
  done;
  (* Backward solve (P L)^T z = v: row k of (P L)^T is column k of L with
     rows mapped through pinv. *)
  let l_start = f.l_start and l_row = f.l_row and l_val = f.l_val in
  let pinv = f.pinv in
  for k = n - 1 downto 0 do
    let acc = ref u.(k) in
    for p = l_start.(k) to l_start.(k + 1) - 1 do
      acc := !acc -. (l_val.(p) *. u.(pinv.(l_row.(p))))
    done;
    u.(k) <- !acc
  done;
  (* y = P^T z: y.(pivot_row.(k)) = z_k; [pivot_row] is a permutation. *)
  for k = 0 to n - 1 do
    c.(f.pivot_row.(k)) <- u.(k)
  done
