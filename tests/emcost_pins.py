"""The EM-cost report of ``src/repro``: each ``@io_bound`` row's
``(declared, inferred, certified)``, keyed by ``module.function``.
Printed by ``python -m tests.test_emcost`` (with ``src`` on the
path)."""

PINS = {
    'bfs.mr_bfs': (
        '4·N + 2·N·log_m(n)/B + 2·N/B',
        'N + N·log_m(n)/B + 5·N/B',
        True),
    'bfs.naive_bfs': (
        '4·N',
        'N + 5·N/B',
        True),
    'bfs.semi_external_bfs': (
        'N + N/B',
        'N/B',
        True),
    'buffer_tree.buffer_tree_sort': (
        'N·log_m(n)^2/B + 7·N·log_m(n)/B + 10·N/B',
        '2·N·log_m(n)/B + 2·N/B',
        True),
    'connectivity.dfs_components': (
        'N + N/B',
        'N/B',
        True),
    'connectivity.external_components': (
        '6·N·log_m(n)·log2(N)/B + 14·N·log2(N)/B',
        '9·N·log_m(n)/B + 17·N/B',
        True),
    'connectivity.semi_external_components': (
        'N/B',
        'N/B',
        True),
    'distribution.distribution_sort': (
        '2·N·log_m(n)/B + 2·N/B',
        '2·N·log_m(n)/B',
        True),
    'dominance.dominance_counts': (
        'N·log_m(n)^2/B + 5·N·log_m(n)/B + 4·N/B',
        '2·N^2/B + N·log_m(n)/B + 10·N/B',
        False),
    'euler.build_euler_tour': (
        '8·N·log_m(n)/B + 24·N/B',
        '2·N·log_m(n)/B + 3·N/B',
        True),
    'euler.tree_depths': (
        '4·N·log_m(n)·log2(N)/B + 12·N·log2(N)/B',
        '14·N·log_m(n)/B + 43·N/B',
        True),
    'joins.block_nested_loop_join': (
        'N^2/B/M + N/B + Z/B',
        '2·N^2/B/M + N/B',
        True),
    'joins.grace_hash_join': (
        '3·N/B + Z/B + 2·M/B',
        '2·N^2/B/M + 3·N/B',
        False),
    'joins.hash_group_by': (
        '3·N/B + 2·M/B',
        '3·N/B',
        True),
    'joins.sort_merge_join': (
        '2·N·log_m(n)/B + 4·N/B + Z/B',
        'N·log_m(n)/B + N/B',
        True),
    'list_ranking.list_ranking': (
        '4·N·log_m(n)·log2(N)/B + 10·N·log2(N)/B',
        '6·N·log_m(n)/B + 20·N/B',
        True),
    'list_ranking.list_ranking_materialized': (
        '4·N·log_m(n)·log2(N)/B + 10·N·log2(N)/B',
        '6·N·log_m(n)/B + 19·N/B',
        True),
    'list_ranking.pointer_chase_ranking': (
        '2·N + 2·N/B',
        '2·N',
        True),
    'list_ranking.weighted_list_ranking': (
        '4·N·log_m(n)·log2(N)/B + 10·N·log2(N)/B',
        '6·N·log_m(n)/B + 20·N/B',
        True),
    'matrix.multiply_blocked': (
        '8·N/B',
        'N^2/B + N/B + 1',
        False),
    'matrix.multiply_naive': (
        'N + 2·N/B',
        'N^2/B + 1',
        False),
    'matrix.transpose_blocked': (
        'N·log_m(n)/B + 5·N/B',
        'N + N·log_m(n)/B + 2·N/B + B + 1',
        False),
    'matrix.transpose_by_sort': (
        'N·log_m(n)/B + 5·N/B',
        'N·log_m(n)/B + 2·N/B + 1',
        True),
    'matrix.transpose_naive': (
        'N + 2·N/B',
        'N^2/B + 1',
        False),
    'merge.external_merge_sort': (
        'N·log_m(n)/B + N/B',
        'N·log_m(n)/B',
        True),
    'merge.merge_streams': (
        '2·N/B',
        'N/B',
        True),
    'mst.external_boruvka': (
        '12·N·log_m(n)·log2(N)/B + 28·N·log2(N)/B',
        '8·N·log_m(n)/B + 19·N/B',
        True),
    'mst.semi_external_kruskal': (
        'N·log_m(n)/B + 4·N/B',
        'N·log_m(n)/B + N/B',
        True),
    'naive.segment_intersections_naive': (
        'N^2/B/M + 3·N/B + Z/B',
        '2·N^2/B/M + 3·N/B',
        True),
    'naive.two_way_merge_sort': (
        'N·log_m(n)/B + N/B',
        'N·log_m(n)/B',
        True),
    'operators.distinct': (
        'N·log_m(n)/B + 3·N/B + Z/B',
        'N·log_m(n)/B + 2·N/B',
        True),
    'operators.group_by': (
        'N·log_m(n)/B + 3·N/B + Z/B',
        'N·log_m(n)/B + 2·N/B',
        True),
    'operators.order_by': (
        'N·log_m(n)/B + 3·N/B + Z/B',
        'N·log_m(n)/B',
        True),
    'operators.project': (
        'N/B + Z/B',
        '2·N/B',
        True),
    'operators.select': (
        'N/B + Z/B',
        '2·N/B',
        True),
    'operators.top_k': (
        'N/B + Z/B',
        '2·N/B',
        True),
    'permute.permute': (
        'min(2·N + 4·N/B, N·log_m(n)/B + 5·N/B)',
        'N·log_m(n)/B + 5·N/B + 3',
        True),
    'permute.permute_by_sort': (
        'N·log_m(n)/B + 5·N/B',
        'N·log_m(n)/B + 2·N/B',
        True),
    'permute.permute_naive': (
        '2·N + 4·N/B',
        '3·N/B + 3',
        True),
    'runs.form_runs_load_sort': (
        '2·N/B',
        '2·N/B',
        True),
    'runs.form_runs_replacement_selection': (
        '2·N/B',
        '2·N/B',
        True),
    'selection.external_median': (
        '4·N/B',
        '4·N/B',
        True),
    'selection.external_select': (
        '4·N/B',
        '4·N/B',
        True),
    'sssp.external_dijkstra': (
        '2·N + 2·N·log_m(n)/B + 4·N/B',
        'N + N·log_m(n)^2/B + N·log_m(n)/B + N/B + log_m(n)^2/B + log_m(n)/B',
        True),
    'sssp.semi_external_dijkstra': (
        'N + N/B',
        'N/B',
        True),
    'steps.merge_sort_steps': (
        'N·log_m(n)/B + N/B',
        'N·log_m(n)/B + 2·N/B',
        True),
    'steps.sort_merge_join_materialized': (
        '2·N·log_m(n)/B + 4·N/B + Z/B',
        'N·log_m(n)/B + 2·N/B + 1',
        True),
    'steps.sort_merge_join_steps': (
        '2·N·log_m(n)/B + 4·N/B + Z/B',
        'N·log_m(n)/B + 2·N/B + 1',
        True),
    'strings.external_string_sort': (
        'N·log_m(n)/B + N/B',
        '6·N/B',
        True),
    'suffix_array.suffix_array': (
        '3·N·log_m(n)·log2(N)/B + 9·N·log2(N)/B',
        '2·N·log_m(n)·log2(N)/B + 5·N·log2(N)/B + 2·N·log_m(n)/B + 3·N/B',
        True),
    'sweep.segment_intersections': (
        'N·log_m(n)^2/B + 4·N·log_m(n)/B + 2·Z/B',
        'N·log_m(n)/B + 21·N/B',
        True),
    'timeforward.dag_longest_paths': (
        'N + 2·N·log_m(n)/B + 6·N/B',
        '3·N·log_m(n)/B + N/B',
        True),
    'timeforward.evaluate_circuit': (
        'N + 2·N·log_m(n)/B + 6·N/B',
        '3·N·log_m(n)/B + N/B',
        True),
    'timeforward.time_forward_process': (
        'N + 2·N·log_m(n)/B + 6·N/B',
        '3·N·log_m(n)/B + N/B',
        True),
    'timeforward.time_forward_process_materialized': (
        'N + 2·N·log_m(n)/B + 6·N/B',
        '3·N·log_m(n)/B + 2·N/B',
        True),
}
