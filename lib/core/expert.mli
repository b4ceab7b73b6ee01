(** The relaxation expert system (Sections IV.B and V): turns the failed
    pass's restraints into the corrective action with the best estimated
    gain — "Every action has an estimated cost, which is combined with the
    number of restraints solved by this action and the restraint weight.
    The action with the best estimated gain wins." *)

open Hls_ir
open Hls_techlib

type action =
  | Add_state
  | Add_resource of Resource.t * int  (** type and how many instances *)
  | Speculate of int
      (** drop an op's guard from its commit path (its enable arrival, not
          its data, dominated the failure) *)
  | Move_scc of int
      (** the paper's novel action: move a whole SCC one pipeline stage
          later ("this failure is distinguished from an ordinary negative
          slack failure") *)
  | Forbid of int * int  (** exclude a comb-cycle-closing (op, inst) pair *)

type options = {
  enable_scc_move : bool;  (** the Table 4 ablation switch *)
  enable_speculation : bool;
  enable_add_resource : bool;
  max_batch : int;
      (** cap on actions per pass from {!choose_many}: the winner plus at
          most [max_batch - 1] batched runner-ups *)
}

val default_options : options

val action_to_string : action -> string

val downstream : Hls_netlist.Op_table.t -> int list -> (int, unit) Hashtbl.t
(** Distance-0 downstream cone of a set of ops, inclusive. *)

val choose :
  allow_add_state:bool ->
  opts:options ->
  binding:Binding.t ->
  region:Region.t ->
  restraints:Restraint.t list ->
  sccs:int list list ->
  scc_of:(int -> int option) ->
  scc_stage:(int -> int) ->
  (action * string) option
(** The single best action (with its explanation), or [None] when the
    portfolio is exhausted (specification overconstrained).  Resource
    additions are credited only for restraints the timing estimate says a
    fresh instance would actually solve — the paper's "a second multiplier
    does not help" reasoning. *)

val choose_many :
  allow_add_state:bool ->
  opts:options ->
  binding:Binding.t ->
  region:Region.t ->
  restraints:Restraint.t list ->
  sccs:int list list ->
  scc_of:(int -> int option) ->
  scc_stage:(int -> int) ->
  (action * string) list
(** Batched variant for large designs: the winner plus runner-up resource
    additions of other starving types (each saves one full pass). *)
