(** The textbook O(|a|·|b|) natural join, kept as the executable
    specification of the join semantics (Definition 8 reads this way):
    the oracle {!Weblab_relalg.Table.hash_join} is tested against, and
    the baseline it is benchmarked against. *)

val nested_loop_join :
  Weblab_relalg.Table.t -> Weblab_relalg.Table.t -> Weblab_relalg.Table.t
(** ⋈ on all shared column names, a cross product when none are shared.
    Output schema is [a]'s columns followed by [b]'s own; rows come in
    [a]-major, then [b]-major order — the row sequence the hash join
    must reproduce exactly. *)
