"""Process-mining based rating and explanation of anomaly-IDS alarms.

Pipeline: PCAP/corpus -> bidirectional TCP flows -> anomaly detector ->
TCP event traces -> state-wise event logs -> discovered workflow nets ->
alignment profiles -> cosine-similarity severity bands.
"""
