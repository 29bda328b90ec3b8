(** Krylov sequence computation by repeated squaring — the doubling
    argument (9):

    A^{2ⁱ}·(v | Av | … | A^{2ⁱ-1}v) = (A^{2ⁱ}v | … | A^{2^{i+1}-1}v)

    log₂(m) matrix products instead of m matrix–vector products, giving the
    O(n^ω log n) size / O((log n)²) depth of (10).  Straight-line. *)

module Make (F : Kp_field.Field_intf.FIELD_CORE) : sig
  module M : module type of Kp_matrix.Dense.Core (F)

  type mul = M.t -> M.t -> M.t
  (** The matrix-multiplication black box of the paper. *)

  val columns : mul:mul -> M.t -> F.t array -> int -> M.t
  (** [columns ~mul a v m]: the n×m matrix whose column i is Aⁱ·v,
      by doubling. *)

  val doubling_powers : mul:mul -> M.t -> int -> M.t array
  (** [doubling_powers ~mul a m] = [|A; A²; A⁴; …|], the repeated squarings
      {!columns} performs on its way to [m] columns (the kernel table E14
      times them). *)

  val columns_sequential : M.t -> F.t array -> int -> M.t
  (** Same result by m-1 matrix–vector products (O(n²m) work but O(m·log n)
      depth — the sequential fallback, cheaper in total work). *)

  val sequence : u:F.t array -> M.t -> F.t array
  (** [sequence ~u k] = u·K: the scalar sequence {u·Aⁱ·v}. *)

  val combination : M.t -> F.t array -> F.t array
  (** [combination k c] = Σᵢ cᵢ·(column i of K) — the Cayley–Hamilton
      linear combination. *)
end
