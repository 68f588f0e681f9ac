from .td import (
    TdConfig,
    EpisodeStats,
    epsilon_greedy,
    td_target_qlearning,
    td_target_sarsa,
    train_td,
)
from .ppo import (
    PpoConfig,
    Trajectory,
    IterationStats,
    gae,
    ppo_loss,
    train_ppo,
)
