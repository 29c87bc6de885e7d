(* The model's evaluation engine: one stage walk of Eqs. (1)-(39).

   A [workspace] is built once per (system, message, variants,
   pattern) and holds every λ-invariant quantity — service times,
   distance distributions, outgoing probabilities, per-pair tail
   sums.  [walk] then computes Eq. (3) for any λ touching nothing but
   those tables and a small scratch array.  With recording off it is
   [mean_into], allocation-free; with recording on it also writes the
   per-cluster and per-pair intermediates into a buffer kept in the
   workspace, which [breakdown] and the [Tail] fit read back.

   Bit-identity discipline: every hoisted expression keeps the exact
   operand order of the paper's equations as the equation-literal
   reference in the test tree writes them ([*.] and [+.] are
   left-associative and IEEE-754 ops are deterministic), the stage
   walk mirrors [Blocking.stage_service_times] scalar-for-scalar, and
   the M/G/1 wait mirrors [Mg1.waiting_time_mv].  The QCheck suite
   pins the walk, the breakdown and the tail fit to that reference
   bit-for-bit; an arithmetic change on either side must keep the two
   in lockstep. *)

module Metrics = Fatnet_obs.Metrics

type cluster_pre = {
  (* Eq. (2)/(3) constants *)
  u : float;
  one_minus_u : float;
  outgoing : float;  (* N_i · U_i *)
  weight : float;  (* N_i / N *)
  (* intra (ICN1) constants *)
  nodes_f : float;
  probs : float array;  (* P(h), h = index + 1, for the depth-n_i tree *)
  ml : float;  (* mean links of the ICN1 distance distribution *)
  chan_denom : float;  (* 4 · n_i · N(n_i), Eq. (10) denominator *)
  final_icn1 : float;  (* M · t_cn(ICN1) — also Eq. (17)'s service floor *)
  internal_icn1 : float;  (* M · t_cs(ICN1) *)
  tail_intra : float;  (* Eq. (19), λ-invariant *)
  (* inter (ECN1/ICN2) constants *)
  int_e : float;  (* M · t_cs(ECN1) *)
  final_e : float;  (* M · t_cn(ECN1) — Eq. (31)'s service floor *)
  delta : float;  (* Eq. (28) relaxing factor, 1. when disabled *)
  cd_variance : float;  (* Eq. (37) variance term, λ-invariant *)
}

type pair_pre = {
  dest : int;
  sum_outgoing : float;  (* N_i·U_i + N_j·U_j, Eq. (22) *)
  size_c : float;  (* N_i + N_j (Size_scaled numerator) *)
  size_d : float;  (* 2·N_i·N_j (Size_scaled denominator) *)
  tail_pair : float;  (* Eq. (34) probability-weighted tail, λ-invariant *)
}

type workspace = {
  system : Params.system;
  message : Params.message;
  variants : Variants.t;
  c_count : int;
  count_f : float;  (* C - 1 *)
  clusters : cluster_pre array;
  pairs : pair_pre array array;  (* pairs.(i).(k): k-th destination ≠ i, ascending *)
  probs_c : float array;  (* ICN2 distance distribution *)
  ml_c : float;
  icn2_denom : float;  (* 4 · n_c, Eq. (25) denominator *)
  int_i2 : float;  (* M · t_cs(ICN2) — also Eq. (36)'s C/D service *)
  use_dg : bool;
  per_node : bool;
  pair_average : bool;
  scratch : float array;
  (* The recording buffer: allocated by the first [breakdown]/[tail]
     and reused after.  Layout: cluster [i] at [cluster_base i],
     its [k]-th pair at [pair_base ws i k]. *)
  mutable record : float array;
  (* Cached (registry, counter) so the hot path never does a registry
     lookup: revalidated by physical equality on the ambient. *)
  mutable mreg : Metrics.t;
  mutable mctr : Metrics.counter;
}

let probs_of dist =
  Array.init (Fatnet_topology.Distance.n dist) (fun k ->
      Fatnet_topology.Distance.probability dist (k + 1))

let workspace ?(variants = Variants.default) ?outgoing ~system ~message () =
  Params.validate_exn system;
  let c_count = Params.cluster_count system in
  let u =
    match outgoing with
    | Some f -> f
    | None -> fun k -> Pattern.outgoing_probability Pattern.Uniform ~system ~cluster:k
  in
  let m_f = float_of_int message.Params.length_flits in
  let dist_c =
    Fatnet_topology.Distance.create ~m:system.Params.m ~n:system.Params.icn2_depth
  in
  let t_cs_i2 = Service_time.t_cs system.Params.icn2 ~message in
  let int_i2 = Service_time.message_time t_cs_i2 ~message in
  let total_nodes_f = float_of_int (Params.total_nodes system) in
  let clusters =
    Array.init c_count (fun i ->
        let c = system.Params.clusters.(i) in
        let u_i = u i in
        if u_i < 0. || u_i > 1. then invalid_arg "Eval.workspace: u out of [0,1]";
        let nodes = Params.cluster_nodes system i in
        let dist = Fatnet_topology.Distance.create ~m:system.Params.m ~n:c.Params.tree_depth in
        let t_cn = Service_time.t_cn c.Params.icn1 ~message in
        let t_cs = Service_time.t_cs c.Params.icn1 ~message in
        let tail_intra =
          (* Eq. (19) verbatim, including the fold order. *)
          Fatnet_topology.Distance.fold dist ~init:0. ~f:(fun acc ~h ~p ->
              acc +. (p *. ((2. *. float_of_int (h - 1) *. t_cs) +. t_cn)))
        in
        let t_cs_e = Service_time.t_cs c.Params.ecn1 ~message in
        let t_cn_e = Service_time.t_cn c.Params.ecn1 ~message in
        let int_e = Service_time.message_time t_cs_e ~message in
        let delta =
          if variants.Variants.use_relaxing_factor then
            Service_time.relaxing_factor ~ecn1:c.Params.ecn1 ~icn2:system.Params.icn2
          else 1.
        in
        let cd_variance =
          Fatnet_numerics.Float_utils.square
            (int_i2 -. Service_time.message_time t_cs_e ~message)
        in
        {
          u = u_i;
          one_minus_u = 1. -. u_i;
          outgoing = float_of_int nodes *. u_i;
          weight = float_of_int nodes /. total_nodes_f;
          nodes_f = float_of_int nodes;
          probs = probs_of dist;
          ml = Fatnet_topology.Distance.mean_links dist;
          chan_denom =
            4.
            *. float_of_int (Fatnet_topology.Distance.n dist)
            *. float_of_int (Fatnet_topology.Distance.node_count dist);
          final_icn1 = m_f *. t_cn;
          internal_icn1 = m_f *. t_cs;
          tail_intra;
          int_e;
          final_e = m_f *. t_cn_e;
          delta;
          cd_variance;
        })
  in
  (* Raw per-cluster ECN1 service times, needed once more for the
     λ-invariant Eq. (34) tail sums. *)
  let t_cs_e_raw =
    Array.init c_count (fun i ->
        Service_time.t_cs system.Params.clusters.(i).Params.ecn1 ~message)
  in
  let t_cn_e_raw =
    Array.init c_count (fun i ->
        Service_time.t_cn system.Params.clusters.(i).Params.ecn1 ~message)
  in
  let probs_c = probs_of dist_c in
  let pairs =
    if c_count < 2 then Array.make c_count [||]
    else
      Array.init c_count (fun i ->
          let cp = clusters.(i) in
          Array.init (c_count - 1) (fun k ->
              let j = if k < i then k else k + 1 in
              let cq = clusters.(j) in
              let t_cs_e_i = t_cs_e_raw.(i) in
              let t_cs_e_j = t_cs_e_raw.(j) in
              let t_cn_e_j = t_cn_e_raw.(j) in
              (* Eq. (34) weighted over the (r, v, l) journey mix —
                 the paper's triple fold and accumulation order, just
                 hoisted out of the λ loop. *)
              let tail = ref 0. in
              Array.iteri
                (fun ri p_r ->
                  let r = ri + 1 in
                  Array.iteri
                    (fun vi p_v ->
                      let v = vi + 1 in
                      Array.iteri
                        (fun li p_l ->
                          let l = li + 1 in
                          let p = p_r *. p_v *. p_l in
                          tail :=
                            !tail
                            +. (p
                               *. ((float_of_int (r - 1) *. t_cs_e_i)
                                  +. (float_of_int (v - 1) *. t_cs_e_j)
                                  +. (2. *. float_of_int l *. t_cs_i2)
                                  +. t_cn_e_j)))
                        probs_c)
                    cq.probs)
                cp.probs;
              let nodes_i = Params.cluster_nodes system i in
              let nodes_j = Params.cluster_nodes system j in
              {
                dest = j;
                sum_outgoing = cp.outgoing +. cq.outgoing;
                size_c = float_of_int (nodes_i + nodes_j);
                size_d = 2. *. cp.nodes_f *. cq.nodes_f;
                tail_pair = !tail;
              }))
  in
  let reg = Metrics.ambient () in
  {
    system;
    message;
    variants;
    c_count;
    count_f = float_of_int (c_count - 1);
    clusters;
    pairs;
    probs_c;
    ml_c = Fatnet_topology.Distance.mean_links dist_c;
    icn2_denom = 4. *. float_of_int system.Params.icn2_depth;
    int_i2;
    use_dg = variants.Variants.source_variance = Variants.Draper_ghosh;
    per_node = variants.Variants.source_rate = Variants.Per_node;
    pair_average = variants.Variants.lambda_i2 = Variants.Pair_average;
    scratch = Array.make 8 0.;
    record = [||];
    mreg = reg;
    mctr = Metrics.counter reg "model_evaluations";
  }

let system ws = ws.system
let message ws = ws.message
let variants ws = ws.variants

(* Scratch slots: 0 = Eq. (3) accumulator, 1 = network accumulator,
   2 = stage walk service time, 3 = stage walk downstream waits,
   4 = Eq. (35) latency sum, 5 = Eq. (38) C/D wait sum. *)

(* Same-module mirror of [Mg1.waiting_time_mv], verbatim: without
   flambda a cross-module float call boxes three arguments and the
   result, which alone costs ~23 kB per [mean_into] on org_544.
   Inlined here the whole evaluation stays on the float registers.
   The bit-identity suite pins this against the real Mg1. *)
let[@inline] mg1_wait ~lambda ~mean ~variance =
  if mean < 0. then invalid_arg "Mg1: negative service mean";
  if variance < 0. then invalid_arg "Mg1: negative service variance";
  if lambda < 0. then invalid_arg "Mg1.waiting_time: negative arrival rate";
  if lambda = 0. then 0.
  else
    let rho = lambda *. mean in
    if rho >= 1. then infinity
    else lambda *. ((mean *. mean) +. variance) /. (2. *. (1. -. rho))

(* Recording-buffer layout: per cluster [cluster_stride] floats
   (network, waiting, source rate, intra total, inter total, combined),
   then per (cluster, k-th destination) pair [pair_stride] floats
   (network, waiting, C/D wait, source rate, λ_I2). *)
let cluster_stride = 6
let pair_stride = 5
let cluster_base i = cluster_stride * i
let pair_base ws i k = (cluster_stride * ws.c_count) + (pair_stride * ((i * (ws.c_count - 1)) + k))

(* One stage walk of Eqs. (1)-(39).  [record] writes the intermediates
   into [ws.record]; the stores sit outside the stage loops and never
   feed back into the arithmetic, so the returned bits are the same
   either way.  Inlined so that [mean_into] gets its own copy with the
   recording branches folded away (without it org_544 ran ~2 % slower). *)
let[@inline] walk ws ~record ~lambda_g =
  if lambda_g < 0. then invalid_arg "Eval.mean_into: negative lambda_g";
  let reg = Metrics.ambient () in
  if reg != ws.mreg then begin
    ws.mreg <- reg;
    ws.mctr <- Metrics.counter reg "model_evaluations"
  end;
  Metrics.incr ws.mctr;
  let acc = ws.scratch in
  let buf = ws.record in
  acc.(0) <- 0.;
  for i = 0 to ws.c_count - 1 do
    let cp = ws.clusters.(i) in
    (* ---- intra, Eqs. (5)-(19) ---- *)
    let lambda_icn1 = cp.nodes_f *. lambda_g *. cp.one_minus_u in
    let eta_icn1 = lambda_icn1 *. cp.ml /. cp.chan_denom in
    acc.(1) <- 0.;
    let nh = Array.length cp.probs in
    for hi = 0 to nh - 1 do
      (* Eq. (14)'s backward walk, scalarized: only stage 0's service
         time is consumed and each wait reads only the next stage's,
         so two scalars replace the stage array. *)
      let stages = (2 * (hi + 1)) - 1 in
      acc.(2) <- cp.final_icn1;
      acc.(3) <- 0.;
      for _k = stages - 2 downto 0 do
        acc.(3) <- acc.(3) +. (0.5 *. eta_icn1 *. acc.(2) *. acc.(2));
        acc.(2) <- cp.internal_icn1 +. acc.(3)
      done;
      acc.(1) <- acc.(1) +. (cp.probs.(hi) *. acc.(2))
    done;
    let network = acc.(1) in
    let variance =
      if ws.use_dg then begin
        let d = network -. cp.final_icn1 in
        d *. d
      end
      else 0.
    in
    let source_lambda = if ws.per_node then lambda_g *. cp.one_minus_u else lambda_icn1 in
    let waiting = mg1_wait ~lambda:source_lambda ~mean:network ~variance in
    let intra_total = waiting +. network +. cp.tail_intra in
    let inter_total =
      if ws.c_count < 2 then nan
      else begin
        (* ---- inter, Eqs. (20)-(39) ---- *)
        acc.(4) <- 0.;
        acc.(5) <- 0.;
        let prs = ws.pairs.(i) in
        let nl = Array.length ws.probs_c in
        for k = 0 to Array.length prs - 1 do
          let pr = prs.(k) in
          let cq = ws.clusters.(pr.dest) in
          let lambda_ecn1 = lambda_g *. pr.sum_outgoing in
          let lambda_icn2 =
            if ws.pair_average then lambda_g *. pr.sum_outgoing /. 2.
            else lambda_g *. pr.sum_outgoing *. pr.size_c /. pr.size_d
          in
          let eta_ecn1 = lambda_ecn1 *. cp.ml /. cp.chan_denom in
          let eta_icn2 = lambda_icn2 *. ws.ml_c /. ws.icn2_denom in
          let eta_icn2_relaxed = eta_icn2 *. cp.delta in
          acc.(1) <- 0.;
          let nr = Array.length cp.probs and nv = Array.length cq.probs in
          for ri = 0 to nr - 1 do
            let r = ri + 1 in
            for vi = 0 to nv - 1 do
              let v = vi + 1 in
              for li = 0 to nl - 1 do
                let l = li + 1 in
                let p = cp.probs.(ri) *. cq.probs.(vi) *. ws.probs_c.(li) in
                let stages = r + v + (2 * l) - 1 in
                let icn2_end = r + (2 * l) - 1 in
                acc.(2) <- cq.final_e;
                acc.(3) <- 0.;
                for k2 = stages - 2 downto 0 do
                  let s = k2 + 1 in
                  let eta =
                    if s >= r && s < icn2_end then eta_icn2_relaxed else eta_ecn1
                  in
                  acc.(3) <- acc.(3) +. (0.5 *. eta *. acc.(2) *. acc.(2));
                  let internal =
                    if k2 < r then cp.int_e
                    else if k2 < icn2_end then ws.int_i2
                    else cq.int_e
                  in
                  acc.(2) <- internal +. acc.(3)
                done;
                acc.(1) <- acc.(1) +. (p *. acc.(2))
              done
            done
          done;
          let network = acc.(1) in
          let variance =
            if ws.use_dg then begin
              let d = network -. cp.final_e in
              d *. d
            end
            else 0.
          in
          let source_lambda = if ws.per_node then lambda_g *. cp.u else lambda_ecn1 in
          let waiting = mg1_wait ~lambda:source_lambda ~mean:network ~variance in
          let cd_wait =
            2. *. mg1_wait ~lambda:lambda_icn2 ~mean:ws.int_i2 ~variance:cp.cd_variance
          in
          acc.(4) <- acc.(4) +. (waiting +. network +. pr.tail_pair);
          acc.(5) <- acc.(5) +. cd_wait;
          if record then begin
            let o = pair_base ws i k in
            buf.(o) <- network;
            buf.(o + 1) <- waiting;
            buf.(o + 2) <- cd_wait;
            buf.(o + 3) <- source_lambda;
            buf.(o + 4) <- lambda_icn2
          end
        done;
        let l_ex = acc.(4) /. ws.count_f in
        let w_d = acc.(5) /. ws.count_f in
        l_ex +. w_d
      end
    in
    let combined =
      if ws.c_count < 2 then intra_total
      else (cp.u *. inter_total) +. (cp.one_minus_u *. intra_total)
    in
    if record then begin
      let o = cluster_base i in
      buf.(o) <- network;
      buf.(o + 1) <- waiting;
      buf.(o + 2) <- source_lambda;
      buf.(o + 3) <- intra_total;
      buf.(o + 4) <- inter_total;
      buf.(o + 5) <- combined
    end;
    acc.(0) <- acc.(0) +. (cp.weight *. combined)
  done;
  acc.(0)

let mean_into ws ~lambda_g = walk ws ~record:false ~lambda_g

(* Memoised front: the memo key is (scenario canonical hash, λ bits),
   so a hit returns the exact bits a fresh [mean_into] would produce —
   the model is a pure function of those two identities.  Callers
   without a key (no scenario in hand) fall through to the plain
   evaluation. *)
let mean_memo ?memo ?key ws ~lambda_g =
  match (memo, key) with
  | Some memo, Some key ->
      Fatnet_numerics.Memo.find_or_compute memo ~key
        ~bits:(Int64.bits_of_float lambda_g) (fun () -> mean_into ws ~lambda_g)
  | _ -> mean_into ws ~lambda_g

let recorded_walk ws ~lambda_g =
  if Array.length ws.record = 0 then
    ws.record <- Array.make (pair_base ws ws.c_count 0) 0.;
  walk ws ~record:true ~lambda_g

type intra = { network : float; waiting : float; tail : float; source_rate : float }

type pair = {
  dest : int;
  network : float;
  waiting : float;
  tail : float;
  cd_wait : float;
  source_rate : float;
  lambda_icn2 : float;
}

type cluster = {
  nodes : int;
  u : float;
  intra : intra;
  pairs : pair array;
  intra_total : float;
  inter_total : float;
  combined : float;
}

type breakdown = { mean : float; clusters : cluster array }

let breakdown ws ~lambda_g =
  let mean = recorded_walk ws ~lambda_g in
  let b = ws.record in
  let cluster i =
    let cp = ws.clusters.(i) and o = cluster_base i in
    let pair k (pr : pair_pre) =
      let o = pair_base ws i k in
      {
        dest = pr.dest;
        network = b.(o);
        waiting = b.(o + 1);
        tail = pr.tail_pair;
        cd_wait = b.(o + 2);
        source_rate = b.(o + 3);
        lambda_icn2 = b.(o + 4);
      }
    in
    {
      nodes = Params.cluster_nodes ws.system i;
      u = cp.u;
      intra =
        { network = b.(o); waiting = b.(o + 1); tail = cp.tail_intra; source_rate = b.(o + 2) };
      pairs = Array.mapi pair ws.pairs.(i);
      intra_total = b.(o + 3);
      inter_total = b.(o + 4);
      combined = b.(o + 5);
    }
  in
  { mean; clusters = Array.init ws.c_count cluster }

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

(* The Tail mixture, read straight off the recording buffer: one
   shifted exponential for each cluster's intra traffic, then one per
   destination pair, in cluster order.  Each busy probability ρ is
   the utilization the walk's own M/G/1 waits saw (source rate ×
   network latency, and λ_I2 × the C/D service for both buffers). *)
let tail ws ~lambda_g =
  let mean = recorded_walk ws ~lambda_g in
  let b = ws.record in
  let components = ref [] in
  for i = ws.c_count - 1 downto 0 do
    let cp = ws.clusters.(i) in
    let prs = ws.pairs.(i) in
    for k = Array.length prs - 1 downto 0 do
      let o = pair_base ws i k in
      let network = b.(o) in
      let rho_src = clamp01 (b.(o + 3) *. network) in
      let rho_cd = clamp01 (b.(o + 4) *. ws.int_i2) in
      components :=
        {
          Tail.weight = cp.weight *. cp.u /. ws.count_f;
          floor = network +. prs.(k).tail_pair;
          wait_mean = b.(o + 1) +. b.(o + 2);
          sigma = 1. -. ((1. -. rho_src) *. (1. -. rho_cd) *. (1. -. rho_cd));
        }
        :: !components
    done;
    let o = cluster_base i in
    components :=
      {
        Tail.weight = cp.weight *. cp.one_minus_u;
        floor = b.(o) +. cp.tail_intra;
        wait_mean = b.(o + 1);
        sigma = clamp01 (b.(o + 2) *. b.(o));
      }
      :: !components
  done;
  { Tail.mean; components = !components }

let quantile ws ~lambda_g ~q = Tail.quantile (tail ws ~lambda_g) q

let saturation_rate ?state ?(tol = 1e-9) ws =
  let saturated lambda_g =
    not (Fatnet_numerics.Float_utils.is_finite (mean_into ws ~lambda_g))
  in
  let rate =
    match state with
    | Some state -> Fatnet_numerics.Solver.boundary_warm ~tol ~state ~pred:saturated ~lo:0. ()
    | None ->
        (* The canonical cold sequence: bracket up from 1e-9, then
           locate the boundary. *)
        let hi = Fatnet_numerics.Solver.find_upper_bracket ~f:saturated ~lo:1e-9 () in
        if hi <= 1e-9 then hi
        else Fatnet_numerics.Solver.boundary ~tol ~pred:saturated ~lo:0. ~hi ()
  in
  Metrics.set
    (Metrics.gauge (Metrics.ambient ()) "model_saturation_rate"
       ~help:"Last saturation rate located by the solver (per-node message rate)")
    rate;
  rate

(* ---- the multicore batch engine ---- *)

module Pool = struct
  module Solver = Fatnet_numerics.Solver
  module Memo = Fatnet_numerics.Memo
  module Exec = Fatnet_numerics.Pool

  (* Scheduling is {!Fatnet_numerics.Pool}'s; this layer adds only
     the per-domain model state.  Bit-identity under any
     task-to-domain assignment holds because the output slot is
     addressed by the {e input index}, each task's value depends only
     on (pure precomputed workspace, λ) — per-domain workspaces are
     identical pure data, scratch never crosses domains — and
     IEEE-754 ops are deterministic.  Which domain computes a task
     can never change what it writes. *)

  type ctx = {
    id : int;
    bstate : Solver.bracket_state;
    (* One cached workspace per domain, revalidated by physical
       equality on the inputs: batches iterate λ for one spec, or
       walk a small family of specs, so a 1-slot cache removes almost
       every rebuild without an unbounded table. *)
    mutable cached_ws : workspace option;
  }

  type t = { exec : Exec.t; ctxs : ctx array }

  let recommended_domains = Exec.recommended_domains

  let of_exec exec =
    {
      exec;
      ctxs =
        Array.init (Exec.domains exec) (fun id ->
            { id; bstate = Solver.bracket_state (); cached_ws = None });
    }

  let create ?domains () = of_exec (Exec.create ?domains ())
  let domains t = Exec.domains t.exec
  let shutdown t = Exec.shutdown t.exec
  let with_pool ?domains f = Exec.with_pool ?domains (fun exec -> f (of_exec exec))

  let map t ~f inputs =
    let out = Array.make (Array.length inputs) None in
    let t0 = Metrics.now_seconds () in
    let busy =
      Exec.run t.exec (Array.length inputs) ~f:(fun d i ->
          out.(i) <- Some (f t.ctxs.(d) inputs.(i)))
    in
    let reg = Metrics.ambient () in
    if Metrics.is_enabled reg then begin
      let wall = Float.max (Metrics.now_seconds () -. t0) 1e-9 in
      Array.iteri
        (fun d b ->
          Metrics.set_max
            (Metrics.gauge reg "pool_domain_occupancy"
               ~labels:[ ("domain", string_of_int d) ]
               ~help:"Peak busy fraction of each evaluation-pool domain over a batch")
            (b /. wall))
        busy
    end;
    Array.map (function Some v -> v | None -> assert false) out

  let ctx_id ctx = ctx.id
  let ctx_bracket ctx = ctx.bstate

  let ctx_workspace ctx ?variants ?outgoing ~system:sys ~message:msg () =
    match outgoing with
    | Some _ ->
        (* An [outgoing] closure has no cheap identity to key the
           cache on; build fresh. *)
        workspace ?variants ?outgoing ~system:sys ~message:msg ()
    | None -> (
        let v = match variants with Some v -> v | None -> Variants.default in
        match ctx.cached_ws with
        | Some w when w.system == sys && w.message == msg && w.variants == v -> w
        | _ ->
            let w = workspace ~variants:v ~system:sys ~message:msg () in
            ctx.cached_ws <- Some w;
            w)

  let means t ?memo ?key ?variants ?outgoing ~system:sys ~message:msg lambdas =
    map t lambdas ~f:(fun ctx lambda_g ->
        let eval () =
          mean_into
            (ctx_workspace ctx ?variants ?outgoing ~system:sys ~message:msg ())
            ~lambda_g
        in
        match (memo, key) with
        | Some memo, Some key ->
            (* Memo first, workspace lazily: a fully memoised point
               never pays a workspace build. *)
            Memo.find_or_compute memo ~key ~bits:(Int64.bits_of_float lambda_g) eval
        | _ -> eval ())

  let saturation_rates t ?(warm = false) ?tol ?variants ~message:msg systems =
    map t systems ~f:(fun ctx sys ->
        let ws = ctx_workspace ctx ?variants ~system:sys ~message:msg () in
        if warm then saturation_rate ~state:ctx.bstate ?tol ws
        else saturation_rate ?tol ws)
end
