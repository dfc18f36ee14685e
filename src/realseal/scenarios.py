"""The names of the three simulated scenarios, in their canonical order.

scene.py keys its generators by these names. They live apart from it
because scene.py imports numpy, and the CLI offers them as choices before
it knows whether it will simulate anything.
"""

GENUINE = "genuine"
SCREEN_REPLAY = "screen-replay"
PRINTED_PHOTO = "printed-photo"
SCENARIO_NAMES = (GENUINE, SCREEN_REPLAY, PRINTED_PHOTO)
