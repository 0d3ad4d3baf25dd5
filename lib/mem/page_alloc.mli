(** Virtual-to-physical page allocation.

    The paper relies on an OS page-coloring API that preserves the cache-bank
    and memory-channel bits of the virtual address during VA-to-PA
    translation, which is what lets the compiler infer on-chip data location
    from virtual addresses (Section 4.1). [Coloring] models that API;
    [Scrambled] models a stock allocator that randomizes page frames, used to
    ablate the OS support. *)

type policy = Coloring | Scrambled

type t

val create : ?seed:int -> policy:policy -> ?metrics:Ndp_obs.Metrics.t -> Addr_map.t -> t
(** With an enabled [metrics] registry, first-touch allocations bump a
    [mem.page_faults] counter and a derived [mem.pages_resident] gauge
    reports the live page count at dump time. *)

val reset : ?seed:int -> ?metrics:Ndp_obs.Metrics.t -> t -> unit
(** Forget every allocation and rebind the instruments to [metrics]: the
    frame table returns to its creation capacity, the TLB empties and the
    frame generator restarts from [seed], so the allocator then behaves
    exactly like [create ?seed ~policy ?metrics] with its own policy and
    map. *)

val policy : t -> policy

val translate : t -> int -> int
(** [translate t va] is the physical address of [va]. The translation is a
    function: repeated calls agree. Under [Coloring] the channel bits of the
    page number are preserved; page-offset bits are always preserved. *)

val compiler_view : t -> int -> int
(** The physical address the {e compiler} believes [va] maps to. Under
    [Coloring] this equals [translate]; under [Scrambled] the compiler can
    only assume an identity mapping, so its view diverges from reality —
    exactly the imprecision the paper's OS support removes. *)
