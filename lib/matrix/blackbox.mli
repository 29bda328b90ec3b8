(** Black-box matrices: all Wiedemann's method needs is v ↦ Av.

    A black box carries its dimension, the forward map in
    destination-passing form, optionally the transposed map, and a cost
    hint (number of field operations of one application) used by the
    experiment tables.  The Krylov and Cayley–Hamilton loops call
    [apply_into] on buffers they own, so an iteration allocates nothing;
    {!apply} is the allocating view of the same map.

    A box built by {!compose} or {!scale_columns} owns one intermediate
    buffer, so it must not be applied from two domains at once.  Every
    composition in the solvers is built per attempt and applied from one
    domain. *)

module Make (F : Kp_field.Field_intf.FIELD) : sig
  type t = {
    dim : int;
    apply_into : F.t array -> F.t array -> unit;
        (** [apply_into v dst] writes A·v into [dst] (length [dim]);
            [dst] must not be [v]. *)
    apply_transpose : (F.t array -> F.t array) option;
    ops_per_apply : int;  (** cost hint; 0 if unknown *)
  }

  val apply : t -> F.t array -> F.t array
  (** [apply t v] is A·v in a fresh array: [apply_into] on a new
      destination. *)

  val of_dense : Dense.Make(F).t -> t
  (** Prepares A once ({!Kp_kernel.Kernel_intf.KERNEL.dense_prepare}) and
      applies the prepared operator, one kernel call per apply.  The box
      takes a snapshot of A: A must not change afterwards, since a backend
      may read it in place or have copied it.
      @raise Invalid_argument on non-square input. *)

  val of_sparse : Sparse.Make(F).t -> t
  (** Prepares A's CSR arrays once
      ({!Kp_kernel.Kernel_intf.KERNEL.csr_prepare}) and applies the
      prepared operator, one kernel call per apply, with the row
      semantics of {!Sparse.Make.matvec}.  A must not change
      afterwards, since a backend may read its arrays in place or have
      copied them.
      @raise Invalid_argument on non-square input. *)

  val of_fun : int -> (F.t array -> F.t array) -> t
  (** A box from an allocating map; its [apply_into] copies the result
      into the destination. *)

  val compose : t -> t -> t
  (** [compose a b] applies b then a (i.e. the matrix product A·B),
      through one intermediate buffer it owns; [ops_per_apply] is the sum
      of the components' costs. *)

  val scale_columns : t -> F.t array -> t
  (** [scale_columns a d] = A·Diag(d): the kernel's pointwise product
      into one buffer it owns, then A.  [ops_per_apply] is the
      component's cost plus [dim] (the diagonal scaling). *)

  val instrument : ?name:string -> t -> t
  (** Observable wrapper: every [apply_into]/[apply_transpose] call
      increments the global {!Kp_obs.Counter} [blackbox.applies] and adds
      [ops_per_apply] to [blackbox.ops]; with [~name] it additionally
      increments [blackbox.<name>.applies].  Instrument only the operator
      actually iterated (not its components) to avoid double counting. *)

  val identity : int -> t

  val to_dense : t -> Dense.Make(F).t
  (** Materialise by applying to the n basis vectors (costly; testing). *)
end
