(** Model-side latency-distribution (tail) approximation.

    The mean model decomposes latency into deterministic transmission
    terms (network head latency + tail-flit drain) and M/G/1 waiting
    components (Eqs. 15, 31, 36).  This module fits each
    (cluster, traffic-class) component with a {e shifted exponential}
    — the wait is zero with probability [1 - sigma] and exponential
    with mean [wait_mean / sigma] otherwise, which is exact for M/M/1
    waiting times and the standard single-moment M/G/1 tail
    approximation — and reads quantiles off the node- and
    class-weighted mixture CDF.  Composite inter-cluster waits
    (source queue + two C/D buffers) keep the summed mean and take
    [sigma = 1 - prod (1 - rho_k)], a two-parameter phase-type
    collapse of the convolution.  {!Eval.tail} fits the mixture from
    the evaluation walk's per-cluster and per-pair breakdown.

    Validated against simulated distributions in the test suite (the
    predicted p99 tracks the simulator's P² estimate on the paper
    organizations through mid loads; see EXPERIMENTS.md). *)

type component = {
  weight : float;  (** mixture probability: node share × class share *)
  floor : float;  (** deterministic network + tail-drain latency *)
  wait_mean : float;  (** mean waiting time of the component *)
  sigma : float;  (** fitted P(wait > 0) — the queue-busy probability *)
}

type t = { mean : float; components : component list }

val cdf : t -> float -> float
(** [cdf t x] = P(latency <= x) under the mixture. *)

val complementary_cdf : t -> float -> float
(** [1 - cdf t x]: the tail probability P(latency > x). *)

val quantile : t -> float -> float
(** Invert the mixture CDF by bisection: the smallest [x] with
    [cdf t x >= q].  [infinity] when the model is saturated (any
    component diverged).  @raise Invalid_argument unless
    [0 < q < 1]. *)
