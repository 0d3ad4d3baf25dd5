(** Weighted undirected edges: the statement MSTs the splitter builds and
    the scheduler walks. *)

type edge = { u : int; v : int; weight : int }
