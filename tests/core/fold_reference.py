"""The batch-synchronous fold's original arithmetic: the reference for
:meth:`repro.core.agent.VectorAutoFLAgent._fold_update`.

It groups a round's transitions by a full int64 stable argsort and ``np.unique``, and
computes one ``(1 - lr) ** k`` per transition.  The agent groups them with
:func:`repro.core.qtable.group_cells` and reads the powers from a table built once; both
must write the same bytes.  The signature is the method's, so tests can patch it onto the
agent class.
"""

import numpy as np


def reference_fold_update(agent, old_table, current_cells, current, next_values, rewards):
    lr = agent.config.learning_rate
    best_next = next_values[:, 0]
    for column in range(1, next_values.shape[1]):
        best_next = np.maximum(best_next, next_values[:, column])
    targets = rewards + agent.config.discount_factor * best_next
    order = np.argsort(current_cells, kind="stable")
    sorted_cells = current_cells[order]
    sorted_targets = targets[order]
    _, first_index, counts = np.unique(sorted_cells, return_index=True, return_counts=True)
    first_current = current[order][first_index]
    first_targets = sorted_targets[first_index]
    position = np.arange(len(sorted_cells)) - np.repeat(first_index, counts)
    group_size = np.repeat(counts, counts)
    weights = lr * (1.0 - lr) ** (group_size - 1 - position)
    folded = (1.0 - lr) ** counts * first_current + np.add.reduceat(
        weights * sorted_targets, first_index
    )
    final = np.where(
        counts == 1,
        first_current + lr * (first_targets - first_current),
        folded,
    )
    old_table.reshape(-1)[sorted_cells[first_index]] = final
