(** Black-box matrices: all Wiedemann's method needs is v ↦ Av.

    A black box carries its dimension, the forward map, optionally the
    transposed map, and a cost hint (number of field operations of one
    application) used by the experiment tables. *)

module Make (F : Kp_field.Field_intf.FIELD) : sig
  type t = {
    dim : int;
    apply : F.t array -> F.t array;
    apply_transpose : (F.t array -> F.t array) option;
    ops_per_apply : int;  (** cost hint; 0 if unknown *)
  }

  val of_dense : Dense.Make(F).t -> t
  (** @raise Invalid_argument on non-square input. *)

  val of_sparse : Sparse.Make(F).t -> t

  val of_fun : int -> (F.t array -> F.t array) -> t

  val compose : t -> t -> t
  (** [compose a b] applies b then a (i.e. the matrix product A·B);
      [ops_per_apply] is the sum of the components' costs. *)

  val scale_columns : t -> F.t array -> t
  (** [scale_columns a d] = A·Diag(d).  [ops_per_apply] is the component's
      cost plus [dim] (the diagonal scaling). *)

  val instrument : ?name:string -> t -> t
  (** Observable wrapper: every [apply]/[apply_transpose] call increments
      the global {!Kp_obs.Counter} [blackbox.applies] and adds
      [ops_per_apply] to [blackbox.ops]; with [~name] it additionally
      increments [blackbox.<name>.applies].  Instrument only the operator
      actually iterated (not its components) to avoid double counting. *)

  val identity : int -> t

  val to_dense : t -> Dense.Make(F).t
  (** Materialise by applying to the n basis vectors (costly; testing). *)
end
