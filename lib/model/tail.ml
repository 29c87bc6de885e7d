(* The mean model (Eqs. 1-39) decomposes every message's latency into
   a deterministic transmission part (the probability-weighted
   network head latency plus the tail-flit drain) and the random
   M/G/1 waiting components (the source queue, and for inter-cluster
   traffic the two C/D buffers).  This module turns that decomposition
   into a latency *distribution*: each (cluster, traffic-class)
   component becomes a shifted exponential — a deterministic floor
   plus a wait that is zero with probability 1 - sigma and
   exponential with mean wait_mean / sigma otherwise — and the system
   law is the node- and class-weighted mixture.

   The exponential fit is exact for the M/M/1 waiting time
   (P(W > t) = rho e^[-(1-rho) mu t], i.e. sigma = rho and
   E[W] = wait_mean) and is the standard single-moment
   approximation for M/G/1 tails; composite waits (source queue plus
   two C/D queues) keep the summed mean and take
   sigma = 1 - prod (1 - rho_k), the probability that at least one of
   the independent queues is busy — a two-parameter phase-type
   collapse of the convolution.  Quantiles come from inverting the
   mixture CDF by bisection, so predicted p50/p90/p99/p999 line up
   with the simulator's ladder.  The fit itself lives next to the
   stage walk that produces its inputs ([Eval.tail]). *)

type component = {
  weight : float;  (* mixture probability: node share x class share *)
  floor : float;  (* deterministic network + tail-drain latency *)
  wait_mean : float;  (* mean of the waiting components, Eq. (15)/(31)/(36) *)
  sigma : float;  (* P(wait > 0): the fitted queue-busy probability *)
}

type t = { mean : float; components : component list }

(* P(W <= t) of one component's wait: a mass of 1 - sigma at zero
   plus sigma x Exponential(sigma / wait_mean), so E[W] = wait_mean. *)
let component_cdf c t =
  if t < c.floor then 0.
  else if c.sigma <= 0. || c.wait_mean <= 0. then 1.
  else 1. -. (c.sigma *. exp (-.c.sigma *. (t -. c.floor) /. c.wait_mean))

let cdf t x =
  List.fold_left (fun acc c -> acc +. (c.weight *. component_cdf c x)) 0. t.components

let complementary_cdf t x = 1. -. cdf t x

let is_finite_t t =
  Fatnet_numerics.Float_utils.is_finite t.mean
  && List.for_all
       (fun c ->
         Float.is_finite c.floor && Float.is_finite c.wait_mean && Float.is_finite c.sigma)
       t.components

let quantile t q =
  if not (q > 0. && q < 1.) then invalid_arg "Tail.quantile: q must be in (0,1)";
  if t.components = [] || not (is_finite_t t) then infinity
  else begin
    (* Smallest x with F(x) >= q.  F is monotone, 0 below the least
       floor; double an upper bracket out from the largest floor,
       then bisect to relative precision well below anything the
       figures or tables render. *)
    let lo0 = List.fold_left (fun a c -> Float.min a c.floor) infinity t.components in
    let hi0 = List.fold_left (fun a c -> Float.max a c.floor) 0. t.components in
    let rec widen hi n =
      if cdf t hi >= q || n > 128 then hi else widen (hi *. 2.) (n + 1)
    in
    let hi = widen (Float.max (2. *. hi0) 1e-12) 0 in
    if cdf t hi < q then infinity
    else begin
      let lo = ref lo0 and hi = ref hi in
      for _ = 1 to 100 do
        let mid = 0.5 *. (!lo +. !hi) in
        if cdf t mid >= q then hi := mid else lo := mid
      done;
      !hi
    end
  end
