(** The model's evaluation engine: Eqs. (1)–(39) as one stage walk
    over a precomputed {!workspace}.

    A workspace built once per [(system, message, variants, pattern)]
    precomputes every λ-invariant quantity — service times, distance
    distributions, outgoing probabilities, Eq. (19)/(34) tail sums,
    ICN2 depth constants.  {!mean_into} then evaluates Eq. (3) for any
    λ without allocating; {!breakdown} runs the same walk and also
    returns the per-cluster and per-pair components, and {!tail} fits
    the latency-distribution mixture from them.

    Every result is {b bit-identical} to the paper's equation-literal
    model, which the test tree keeps as a reference: QCheck property
    tests and golden tests on both paper organizations pin the mean,
    the saturation rate, every breakdown field and every tail
    component.  Each walk bumps [model_evaluations] and
    {!saturation_rate} sets the [model_saturation_rate] gauge.

    A workspace is single-domain: it carries mutable scratch, so
    share one per domain, not across domains. *)

type workspace

val workspace :
  ?variants:Variants.t ->
  ?outgoing:(int -> float) ->
  system:Params.system ->
  message:Params.message ->
  unit ->
  workspace
(** Validate the system and precompute all λ-invariant terms.
    [outgoing] overrides Eq. (2) per cluster (the {!Pattern}
    extension, e.g. [Pattern.outgoing_probability]); values outside
    [[0, 1]] raise.
    @raise Invalid_argument when the system fails validation. *)

val mean_into : workspace -> lambda_g:float -> float
(** Eq. (3) at [lambda_g]; [infinity] (or NaN in degenerate
    zero-outgoing corners) past saturation.  Allocation-free.
    @raise Invalid_argument on negative rates. *)

val mean_memo :
  ?memo:float Fatnet_numerics.Memo.t ->
  ?key:string ->
  workspace ->
  lambda_g:float ->
  float
(** {!mean_into} fronted by a sharded in-memory memo.  [key] must
    identify everything but λ that the result depends on — use the
    scenario canonical hash ({!Fatnet_scenario.Scenario.hash}); the
    λ axis is keyed by its IEEE-754 bits, so a hit returns exactly
    the bits a fresh evaluation would.  Without both [memo] and
    [key] this is plain {!mean_into}. *)

(** {1 Component breakdown} *)

type intra = {
  network : float;  (** probability-weighted head latency, Eq. (5) *)
  waiting : float;  (** source-queue wait, Eq. (15) *)
  tail : float;  (** tail-flit drain, Eq. (19) *)
  source_rate : float;  (** arrival rate the source queue saw *)
}

type pair = {
  dest : int;  (** destination cluster *)
  network : float;  (** merged-pipeline head latency, Eqs. (20)–(30) *)
  waiting : float;  (** egress source-queue wait, Eq. (31) *)
  tail : float;  (** tail-flit drain, Eq. (34) *)
  cd_wait : float;  (** both C/D buffer waits, Eqs. (36)–(37) *)
  source_rate : float;  (** arrival rate the source queue saw *)
  lambda_icn2 : float;  (** per-C/D rate, Eq. (23) *)
}

type cluster = {
  nodes : int;
  u : float;  (** outgoing probability, Eq. (2) or the pattern's *)
  intra : intra;
  pairs : pair array;  (** destinations ascending, the source skipped *)
  intra_total : float;  (** waiting + network + tail of the intra traffic *)
  inter_total : float;  (** Eq. (39); [nan] for a single cluster *)
  combined : float;  (** Eq. (1) *)
}

type breakdown = {
  mean : float;  (** Eq. (3): the bits {!mean_into} returns *)
  clusters : cluster array;
}

val breakdown : workspace -> lambda_g:float -> breakdown
(** The stage walk at [lambda_g] with recording on, read back per
    cluster and per pair.  The recording buffer is allocated on the
    workspace's first [breakdown]/{!tail} and reused after. *)

val tail : workspace -> lambda_g:float -> Tail.t
(** The fitted latency-distribution mixture ({!Tail}) at [lambda_g],
    under the workspace's variants and outgoing probabilities: one
    component per cluster's intra traffic, then one per destination
    pair, each fitted from the recorded walk.  One walk per call. *)

val quantile : workspace -> lambda_g:float -> q:float -> float
(** [Tail.quantile (tail ws ~lambda_g) q]: the model's predicted
    latency quantile (e.g. [~q:0.99] for p99); [infinity] past
    saturation.  @raise Invalid_argument unless [0 < q < 1]. *)

val saturation_rate :
  ?state:Fatnet_numerics.Solver.bracket_state -> ?tol:float -> workspace -> float
(** The divergence rate.  Without [state] this runs the canonical
    cold search: bracket up from [1e-9], then locate the divergence
    boundary.  With [state], successive calls warm-start from the previous
    solve's bracket ({!Fatnet_numerics.Solver.boundary_warm}) — the
    first call against a fresh state still runs the cold sequence
    bit-for-bit. *)

val system : workspace -> Params.system
val message : workspace -> Params.message
val variants : workspace -> Variants.t

(** Multicore batch evaluation on the shared
    {!Fatnet_numerics.Pool}: each of its domains carries its own
    {!workspace} cache and warm
    {!Fatnet_numerics.Solver.bracket_state}.

    {b Bit-identity:} {!Pool.map}/{!Pool.means} results are
    bit-identical to a sequential {!mean_into} loop over the same
    inputs in input order, for any domain count and any task-to-domain
    assignment: output slots are addressed by input index, each value
    depends only on pure per-domain data plus λ, and IEEE-754
    arithmetic is deterministic.  The property suite pins this across
    domain counts, shuffled orders and saturated points.
    {!Pool.saturation_rates} with [warm:true] is the exception — warm
    brackets depend on each domain's solve history, so values are
    tol-accurate but not scheduling-independent. *)
module Pool : sig
  type t
  (** A pool of [domains - 1] worker domains plus the caller. *)

  type ctx
  (** A domain's slot in the pool: its id, its warm bracket state and
      its cached workspace.  Valid only inside the callback that
      received it. *)

  val recommended_domains : unit -> int
  (** {!Fatnet_numerics.Pool.recommended_domains}. *)

  val create : ?domains:int -> unit -> t
  (** Spawn the worker domains ([domains] defaults to
      {!recommended_domains}; must be [>= 1]).  Pools are cheap to
      keep and expensive to churn — create one per phase, not one per
      batch. *)

  val domains : t -> int

  val shutdown : t -> unit
  (** Stop and join the workers.  Idempotent; {!map} afterwards
      raises. *)

  val with_pool : ?domains:int -> (t -> 'a) -> 'a
  (** [create], run, always [shutdown]. *)

  val map : t -> f:(ctx -> 'a -> 'b) -> 'a array -> 'b array
  (** Evaluate [f] over the array with all pool domains (the caller
      participates), via {!Fatnet_numerics.Pool.run}; results land at
      their input index.  Worker-domain metrics registries
      are absorbed into the caller's ambient registry after the join,
      and per-domain [pool_domain_occupancy] gauges are recorded.
      The first task exception is re-raised after the batch stops
      claiming new tasks.  One [map] at a time per pool — concurrent
      or nested calls raise [Invalid_argument]. *)

  val ctx_id : ctx -> int
  (** 0 for the caller, [1 .. domains - 1] for workers. *)

  val ctx_bracket : ctx -> Fatnet_numerics.Solver.bracket_state
  (** The domain's warm bracket state, for custom [f] that run
      saturation searches. *)

  val ctx_workspace :
    ctx ->
    ?variants:Variants.t ->
    ?outgoing:(int -> float) ->
    system:Params.system ->
    message:Params.message ->
    unit ->
    workspace
  (** The domain's workspace for these inputs, rebuilt only when
      [(system, message, variants)] changes physical identity (1-slot
      cache per domain).  With [outgoing] the cache is bypassed —
      closures have no cheap identity. *)

  val means :
    t ->
    ?memo:float Fatnet_numerics.Memo.t ->
    ?key:string ->
    ?variants:Variants.t ->
    ?outgoing:(int -> float) ->
    system:Params.system ->
    message:Params.message ->
    float array ->
    float array
  (** Batch {!mean_into} over λ points; bit-identical to the
      sequential loop.  With [memo] and [key] (see {!mean_memo})
      repeated points are O(lookup) and skip even the workspace
      build. *)

  val saturation_rates :
    t ->
    ?warm:bool ->
    ?tol:float ->
    ?variants:Variants.t ->
    message:Params.message ->
    Params.system array ->
    float array
  (** Batch {!saturation_rate} over a system family.  [warm:false]
      (default) runs the deterministic cold search per system;
      [warm:true] reuses each domain's bracket across its tasks —
      faster on dense families, tol-accurate, but dependent on task
      scheduling. *)
end
